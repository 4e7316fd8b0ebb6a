//! The coordinator's job board: fleet-wide job records and their
//! dispatch state.
//!
//! The board is the coordinator's single source of truth. A fleet job is
//! either a **single run** — hash-routed whole onto one shard
//! ([`crate::shard::route`]) — or a **batch** (grid sweep), scattered
//! cell-by-cell across every shard via
//! [`baryon_bench::batch::BatchPlan`] and gathered back into the exact
//! document a single-process execution would have produced. Dispatchers
//! move work from `Pending` to `Dispatched{shard, remote}`; the cell's
//! completion watcher moves it to `Done`/`Failed` when the shard-local job
//! settles, and a batch settles when its last cell does. Every cell-state
//! write goes through [`FleetJob::cell_mut`].

use baryon_bench::batch::BatchPlan;
use baryon_bench::spec::JobSpec;
use baryon_serve::job::JobState;
use baryon_sim::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::quota::Class;

/// Where one unit of shard work (a whole single run, or one batch cell)
/// stands.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Waiting for a dispatcher.
    Pending,
    /// Accepted by a shard as shard-local job `remote`.
    Dispatched {
        /// The shard index executing it.
        shard: usize,
        /// The shard-local job ID; the cell's completion watcher follows
        /// its event stream and lands the cell while the board still shows
        /// this exact `(shard, remote)` pair.
        remote: u64,
    },
    /// Finished on a shard whose config generation is still mid-rollout:
    /// the result is held back (not settled, not gathered) until the roll
    /// commits. [`JobBoard::resolve_staged`] then promotes it to `Done`,
    /// or — if the roll failed and was rolled back — discards it and
    /// returns the cell to `Pending` for re-dispatch under the restored
    /// config.
    Staged(Json),
    /// Settled successfully with its result document.
    Done(Json),
    /// Settled with an error.
    Failed(String),
}

impl CellState {
    /// True once the cell can no longer change.
    pub fn is_settled(&self) -> bool {
        matches!(self, CellState::Done(_) | CellState::Failed(_))
    }
}

/// What kind of fleet job this is and its dispatch bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetJobKind {
    /// One run, routed whole onto `shard`.
    Single {
        /// The shard chosen by [`crate::shard::route`].
        shard: usize,
        /// Its dispatch state.
        cell: CellState,
    },
    /// A grid sweep scattered across the fleet.
    Batch {
        /// The deterministic scatter plan.
        plan: BatchPlan,
        /// Per-cell state, indexed row-major like the plan.
        cells: Vec<CellState>,
    },
}

/// One fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Fleet-wide job ID (independent of any shard-local ID).
    pub id: u64,
    /// The submitted spec, echoed back in status documents.
    pub spec: JobSpec,
    /// The quota identity that submitted it.
    pub client: String,
    /// Its service class.
    pub class: Class,
    /// Lifecycle state, using the serve layer's wire names.
    pub state: JobState,
    /// The result document once `Done`.
    pub result: Option<Json>,
    /// The failure reason once `Failed`.
    pub error: Option<String>,
    /// Dispatch bookkeeping.
    pub kind: FleetJobKind,
}

impl FleetJob {
    /// The status document (`GET /v1/jobs/<id>` at the coordinator).
    /// Mirrors the serve layer's job document, plus fleet-only fields
    /// (`class`, `client`, and batch cell progress).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_owned(), Json::from(self.id)),
            ("state".to_owned(), Json::from(self.state.as_str())),
            ("class".to_owned(), Json::from(self.class.as_str())),
            ("client".to_owned(), Json::from(self.client.as_str())),
            ("spec".to_owned(), self.spec.to_json()),
        ];
        if let FleetJobKind::Batch { .. } = &self.kind {
            pairs.push(("cells_total".to_owned(), Json::from(self.cells_total())));
            pairs.push(("cells_done".to_owned(), Json::from(self.cells_done())));
        }
        if let Some(result) = &self.result {
            pairs.push(("result".to_owned(), result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_owned(), Json::from(error.as_str())));
        }
        Json::Obj(pairs)
    }

    /// Every cell: a single run's one cell, or a batch's cells row-major.
    pub fn cells(&self) -> &[CellState] {
        match &self.kind {
            FleetJobKind::Single { cell, .. } => std::slice::from_ref(cell),
            FleetJobKind::Batch { cells, .. } => cells,
        }
    }

    /// The work-item index of `cells()[i]`: `None` for a single run's
    /// cell, `Some(i)` for a batch cell.
    pub fn item_index(&self, i: usize) -> Option<usize> {
        matches!(self.kind, FleetJobKind::Batch { .. }).then_some(i)
    }

    /// The cell a work-item index addresses (see [`FleetJob::item_index`]),
    /// or `None` when the index does not fit the job's kind.
    pub fn cell_mut(&mut self, index: Option<usize>) -> Option<&mut CellState> {
        match (&mut self.kind, index) {
            (FleetJobKind::Single { cell, .. }, None) => Some(cell),
            (FleetJobKind::Batch { cells, .. }, Some(i)) => cells.get_mut(i),
            _ => None,
        }
    }

    /// Whether any cell's result is staged behind an in-flight rollout.
    pub fn has_staged(&self) -> bool {
        self.cells()
            .iter()
            .any(|c| matches!(c, CellState::Staged(_)))
    }

    /// Count of settled-successful cells (1 for a done single run).
    pub fn cells_done(&self) -> u64 {
        self.cells()
            .iter()
            .filter(|c| matches!(c, CellState::Done(_)))
            .count() as u64
    }

    /// Total cells (1 for a single run).
    pub fn cells_total(&self) -> u64 {
        self.cells().len() as u64
    }
}

/// What [`JobBoard::resolve_staged`] did, for the caller to act on.
pub struct StagedResolution {
    /// Jobs an accept settled, with the quota slot to release exactly
    /// once per entry.
    pub released: Vec<(u64, String, Class)>,
    /// Cells a reject returned to `Pending`; the caller must requeue each
    /// (`None` cell index means a single run).
    pub requeue: Vec<(u64, Option<usize>)>,
    /// Staged cells resolved either way (the
    /// `fleet.config.quarantined_results` bump on a reject).
    pub count: u64,
}

/// The coordinator's fleet-wide job table.
#[derive(Default)]
pub struct JobBoard {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, FleetJob>>,
}

impl JobBoard {
    /// An empty board; IDs start at 1.
    pub fn new() -> JobBoard {
        JobBoard {
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// Admits a job (already quota-checked) and returns its fleet ID.
    pub fn admit(&self, spec: JobSpec, client: String, class: Class, kind: FleetJobKind) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = FleetJob {
            id,
            spec,
            client,
            class,
            state: JobState::Queued,
            result: None,
            error: None,
            kind,
        };
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .insert(id, job);
        id
    }

    /// Removes a job the coordinator decided not to keep (queue overflow
    /// after admit), returning its record.
    pub fn forget(&self, id: u64) -> Option<FleetJob> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .remove(&id)
    }

    /// A clone of the job's record.
    pub fn get(&self, id: u64) -> Option<FleetJob> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .get(&id)
            .cloned()
    }

    /// The job's lifecycle state.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .get(&id)
            .map(|j| j.state)
    }

    /// Runs `apply` on the job's record under the board lock, then
    /// derives the job-level state from its cells: any failed cell fails
    /// the job (first failure wins), all-done completes it (a batch runs
    /// its gather here), any non-pending cell marks it running. Returns
    /// the `(client, class)` pair when this call settled the job — the
    /// caller must release that quota slot exactly once.
    pub fn update(&self, id: u64, apply: impl FnOnce(&mut FleetJob)) -> Option<(String, Class)> {
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        let job = jobs.get_mut(&id)?;
        if job.state.is_settled() {
            return None; // late updates cannot reopen a settled job
        }
        apply(job);
        if job.state.is_settled() {
            // `apply` settled it directly (e.g. cancel).
            return Some((job.client.clone(), job.class));
        }
        let cells = job.cells();
        let settled = if let Some(CellState::Failed(e)) =
            cells.iter().find(|c| matches!(c, CellState::Failed(_)))
        {
            (JobState::Failed, None, Some(e.clone()))
        } else if cells.iter().all(CellState::is_settled) {
            let slots: Vec<Option<Json>> = cells
                .iter()
                .map(|c| match c {
                    CellState::Done(doc) => Some(doc.clone()),
                    _ => None,
                })
                .collect();
            let gathered = match &job.kind {
                FleetJobKind::Single { .. } => slots
                    .into_iter()
                    .next()
                    .flatten()
                    .ok_or_else(|| "single run settled without a result".to_owned()),
                FleetJobKind::Batch { plan, .. } => plan.gather(slots),
            };
            match gathered {
                Ok(doc) => (JobState::Done, Some(doc), None),
                Err(e) => (JobState::Failed, None, Some(e)),
            }
        } else {
            if cells.iter().any(|c| !matches!(c, CellState::Pending)) {
                job.state = JobState::Running;
            }
            return None;
        };
        let (state, result, error) = settled;
        job.state = state;
        job.result = result;
        job.error = error;
        // The job's result now holds every cell's document; drop the
        // per-cell copies so a settled job costs one result, not two.
        for i in 0..job.cells().len() {
            if let Some(CellState::Done(doc)) = job.cell_mut(job.item_index(i)) {
                *doc = Json::Null;
            }
        }
        Some((job.client.clone(), job.class))
    }

    /// Cancels a still-queued job (no cell dispatched yet). Mirrors the
    /// serve layer: running or settled jobs answer `TooLate`.
    pub fn cancel(&self, id: u64) -> baryon_serve::job::CancelOutcome {
        use baryon_serve::job::CancelOutcome;
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        let Some(job) = jobs.get_mut(&id) else {
            return CancelOutcome::NotFound;
        };
        if job.state != JobState::Queued {
            return CancelOutcome::TooLate(job.state);
        }
        job.state = JobState::Cancelled;
        CancelOutcome::Cancelled
    }

    /// Resolves every staged cell on the board after a rollout settles.
    ///
    /// `accept: true` (the roll committed) promotes staged results to
    /// `Done`, settling jobs whose last cell was waiting on the roll;
    /// `accept: false` (the roll failed and was undone) quarantines the
    /// results — they were computed under a config generation that never
    /// committed — and returns the cells to `Pending` for re-dispatch
    /// under the restored config.
    pub fn resolve_staged(&self, accept: bool) -> StagedResolution {
        let ids: Vec<u64> = {
            let jobs = self.jobs.lock().expect("job board lock poisoned");
            jobs.values()
                .filter(|j| !j.state.is_settled() && j.has_staged())
                .map(|j| j.id)
                .collect()
        };
        let mut out = StagedResolution {
            released: Vec::new(),
            requeue: Vec::new(),
            count: 0,
        };
        for id in ids {
            let mut touched: Vec<Option<usize>> = Vec::new();
            let released = self.update(id, |job| {
                for i in 0..job.cells().len() {
                    let index = job.item_index(i);
                    if let Some(cell) = job.cell_mut(index) {
                        if let CellState::Staged(doc) = cell {
                            *cell = if accept {
                                CellState::Done(doc.clone())
                            } else {
                                CellState::Pending
                            };
                            touched.push(index);
                        }
                    }
                }
            });
            out.count += touched.len() as u64;
            if accept {
                out.released
                    .extend(released.map(|(client, class)| (id, client, class)));
            } else {
                out.requeue.extend(touched.into_iter().map(|c| (id, c)));
            }
        }
        out
    }

    /// Snapshot of every unsettled job's ID.
    pub fn active_ids(&self) -> Vec<u64> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .values()
            .filter(|j| !j.state.is_settled())
            .map(|j| j.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_bench::spec::{GridSpec, RunSpec};
    use baryon_serve::job::CancelOutcome;

    fn single_kind() -> FleetJobKind {
        FleetJobKind::Single {
            shard: 0,
            cell: CellState::Pending,
        }
    }

    fn tiny_grid() -> GridSpec {
        GridSpec {
            workloads: vec!["ycsb-a".into(), "pr.twi".into()],
            controllers: vec!["simple".into()],
            base: RunSpec {
                insts: 1_000,
                warmup: 200,
                scale: 2048,
                ..RunSpec::default()
            },
        }
    }

    #[test]
    fn single_job_lifecycle_settles_once() {
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "alice".into(),
            Class::Interactive,
            single_kind(),
        );
        assert_eq!(board.state(id), Some(JobState::Queued));

        // Dispatch moves it to running, without settling.
        let settled = board.update(id, |j| {
            *j.cell_mut(None).expect("cell") = CellState::Dispatched {
                shard: 0,
                remote: 7,
            };
        });
        assert_eq!(settled, None);
        assert_eq!(board.state(id), Some(JobState::Running));

        // Completion settles it and reports the quota slot to release.
        let settled = board.update(id, |j| {
            *j.cell_mut(None).expect("cell") =
                CellState::Done(Json::obj([("ok", Json::Bool(true))]));
        });
        assert_eq!(settled, Some(("alice".into(), Class::Interactive)));
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert!(job.result.is_some());

        // A late update cannot reopen or re-release.
        let settled = board.update(id, |j| {
            *j.cell_mut(None).expect("cell") = CellState::Failed("late".into());
        });
        assert_eq!(settled, None);
        assert_eq!(board.state(id), Some(JobState::Done));
    }

    #[test]
    fn batch_gathers_on_last_cell_and_fails_on_first_error() {
        let grid = tiny_grid();
        let plan = BatchPlan::scatter(&grid, 2);
        let n = plan.cells.len();
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Grid(grid.clone()),
            "bob".into(),
            Class::Batch,
            FleetJobKind::Batch {
                plan: plan.clone(),
                cells: vec![CellState::Pending; n],
            },
        );

        // Finish all cells but the last; the job stays running.
        for i in 0..n - 1 {
            let settled = board.update(id, |j| {
                *j.cell_mut(Some(i)).expect("cell") = CellState::Done(Json::from(i as u64));
            });
            assert_eq!(settled, None, "cell {i} must not settle the batch");
        }
        let doc = board.get(id).expect("job").to_json().render();
        assert!(doc.contains("\"cells_total\":2"), "{doc}");
        assert!(doc.contains("\"cells_done\":1"), "{doc}");

        // The last cell settles it; the gather is in row-major order.
        let settled = board.update(id, |j| {
            *j.cell_mut(Some(n - 1)).expect("cell") = CellState::Done(Json::from((n - 1) as u64));
        });
        assert_eq!(settled, Some(("bob".into(), Class::Batch)));
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        // The gathered result is the only copy kept: per-cell documents
        // are dropped once the job settles.
        assert!(job
            .cells()
            .iter()
            .all(|c| *c == CellState::Done(Json::Null)));
        assert_eq!(job.result.expect("result").render(), r#"{"results":[0,1]}"#);

        // A failing cell fails the whole batch immediately.
        let id2 = board.admit(
            JobSpec::Grid(grid),
            "bob".into(),
            Class::Batch,
            FleetJobKind::Batch {
                plan,
                cells: vec![CellState::Pending; n],
            },
        );
        let settled = board.update(id2, |j| {
            *j.cell_mut(Some(0)).expect("cell") = CellState::Failed("no such workload".into());
        });
        assert_eq!(settled, Some(("bob".into(), Class::Batch)));
        let job = board.get(id2).expect("job");
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.error.as_deref(), Some("no such workload"));
    }

    #[test]
    fn staged_cells_hold_the_gather_until_the_roll_commits() {
        let grid = tiny_grid();
        let plan = BatchPlan::scatter(&grid, 2);
        let n = plan.cells.len();
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Grid(grid),
            "dana".into(),
            Class::Batch,
            FleetJobKind::Batch {
                plan,
                cells: vec![CellState::Pending; n],
            },
        );

        // One cell settles normally; the other finished on a mid-rollout
        // shard, so its result is staged. The batch must NOT gather yet.
        let settled = board.update(id, |j| {
            *j.cell_mut(Some(0)).expect("cell") = CellState::Done(Json::from(0u64));
            *j.cell_mut(Some(1)).expect("cell") = CellState::Staged(Json::from(1u64));
        });
        assert_eq!(settled, None, "a staged cell must not settle the batch");
        assert_eq!(board.state(id), Some(JobState::Running));

        // The roll commits: the staged result is promoted and the batch
        // gathers exactly as if the cell had settled directly.
        let resolution = board.resolve_staged(true);
        assert_eq!(resolution.count, 1);
        assert_eq!(resolution.released, vec![(id, "dana".into(), Class::Batch)]);
        assert!(resolution.requeue.is_empty());
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.result.expect("result").render(), r#"{"results":[0,1]}"#);
    }

    #[test]
    fn rejected_staged_cells_go_back_to_pending_for_redispatch() {
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "erin".into(),
            Class::Interactive,
            single_kind(),
        );
        board.update(id, |j| {
            *j.cell_mut(None).expect("cell") = CellState::Staged(Json::from(42u64));
        });

        // The roll failed: the staged result is quarantined and the cell
        // returns to Pending — no quota released, job still open.
        let resolution = board.resolve_staged(false);
        assert_eq!(resolution.count, 1);
        assert!(resolution.released.is_empty());
        assert_eq!(resolution.requeue, vec![(id, None)]);
        let job = board.get(id).expect("job");
        assert!(!job.state.is_settled(), "{:?}", job.state);
        assert!(
            matches!(
                job.kind,
                FleetJobKind::Single {
                    cell: CellState::Pending,
                    ..
                }
            ),
            "cell must be re-dispatchable"
        );

        // Nothing staged left: resolving again is a no-op.
        assert_eq!(board.resolve_staged(false).count, 0);
    }

    #[test]
    fn cancel_only_reaches_queued_jobs() {
        let board = JobBoard::new();
        assert_eq!(board.cancel(99), CancelOutcome::NotFound);
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "c".into(),
            Class::Interactive,
            single_kind(),
        );
        assert_eq!(board.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(board.state(id), Some(JobState::Cancelled));
        // Dispatchers skip cancelled jobs; a second cancel is too late.
        assert_eq!(
            board.cancel(id),
            CancelOutcome::TooLate(JobState::Cancelled)
        );

        let running = board.admit(
            JobSpec::Run(RunSpec::default()),
            "c".into(),
            Class::Interactive,
            single_kind(),
        );
        board.update(running, |j| {
            *j.cell_mut(None).expect("cell") = CellState::Dispatched {
                shard: 0,
                remote: 1,
            };
        });
        assert_eq!(
            board.cancel(running),
            CancelOutcome::TooLate(JobState::Running)
        );
    }

    #[test]
    fn active_ids_lists_only_unsettled_jobs() {
        let board = JobBoard::new();
        let a = board.admit(
            JobSpec::Run(RunSpec::default()),
            "x".into(),
            Class::Interactive,
            single_kind(),
        );
        let b = board.admit(
            JobSpec::Run(RunSpec::default()),
            "x".into(),
            Class::Interactive,
            single_kind(),
        );
        board.update(a, |j| {
            *j.cell_mut(None).expect("cell") = CellState::Done(Json::Null);
        });
        assert_eq!(board.active_ids(), vec![b]);
        board.forget(b);
        assert!(board.active_ids().is_empty());
    }
}
