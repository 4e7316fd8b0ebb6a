//! Declarative run specifications.
//!
//! A [`RunSpec`] names one `(workload, controller)` simulation with all of
//! its knobs; a [`GridSpec`] is the cross product of several. Both
//! round-trip through [`baryon_sim::json`], which is how jobs travel over
//! the wire to `baryon-serve` and how `baryon-cli run` describes the run
//! it is about to execute. Keeping the execution path here — one function,
//! used by the CLI and by every server worker — is what makes a job
//! submitted remotely byte-identical to the same run performed locally.

use baryon_core::checkpoint::{Checkpoint, RestoreError};
use baryon_core::family::FamilyId;
use baryon_core::metrics::RunResult;
use baryon_core::policy::FleetPolicy;
use baryon_core::system::{ControllerKind, RunProgress, System, SystemConfig};
use baryon_sim::json::{parse, Json};
use baryon_sim::wire::{Reader, Writer};
use baryon_workloads::{by_name, Scale};
use std::path::Path;

/// File-name prefix used by [`RunSpec::execute_with_checkpoints`] for its
/// rotating checkpoint files (`ckpt-<ops>.ckpt`).
pub const CHECKPOINT_PREFIX: &str = "ckpt";

/// Controller names accepted by [`controller_kind`], in presentation
/// order — the [`FamilyId`] registry's name table.
pub const CONTROLLER_NAMES: &[&str] = &FamilyId::NAMES;

/// Resolves a controller name to its configuration at the given scale
/// through the [`FamilyId`] registry.
///
/// Returns `None` for unknown names; see [`CONTROLLER_NAMES`].
pub fn controller_kind(name: &str, scale: Scale) -> Option<ControllerKind> {
    Some(FamilyId::parse(name).ok()?.kind(scale))
}

/// Overlays a fleet policy's controller overrides onto a resolved
/// [`ControllerKind`]. Baseline controllers (non-Baryon) carry no tunable
/// knobs and pass through unchanged.
fn apply_policy(kind: ControllerKind, policy: Option<&FleetPolicy>) -> ControllerKind {
    match (kind, policy) {
        (ControllerKind::Baryon(cfg), Some(p)) => ControllerKind::Baryon(p.apply(cfg)),
        (kind, _) => kind,
    }
}

/// Stamps the policy's config generation into a finished result.
fn stamp_generation(mut result: RunResult, policy: Option<&FleetPolicy>) -> RunResult {
    result.config_generation = policy.map_or(0, |p| p.generation);
    result
}

/// One fully-specified simulation run.
///
/// Defaults match `baryon-cli run` exactly, so a spec built from a sparse
/// JSON document runs the same experiment the CLI would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload name (see `baryon-cli list`).
    pub workload: String,
    /// Controller name (see [`CONTROLLER_NAMES`]).
    pub controller: String,
    /// Measured instructions per core.
    pub insts: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Capacity scale divisor vs the paper's machine.
    pub scale: u64,
    /// RNG seed shared by workload generation and the system.
    pub seed: u64,
    /// Memory-level parallelism per core.
    pub mlp: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: "505.mcf_r".to_owned(),
            controller: "baryon".to_owned(),
            insts: 150_000,
            warmup: 50_000,
            scale: 256,
            seed: 42,
            mlp: 1,
        }
    }
}

fn field_str(key: &str, value: &Json) -> Result<String, String> {
    match value {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "field `{key}` must be a string, got {}",
            other.render()
        )),
    }
}

fn field_u64(key: &str, value: &Json) -> Result<u64, String> {
    match value {
        Json::U64(n) => Ok(*n),
        Json::I64(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "field `{key}` must be a non-negative integer, got {}",
            other.render()
        )),
    }
}

fn field_bool(key: &str, value: &Json) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        other => Err(format!(
            "field `{key}` must be a boolean, got {}",
            other.render()
        )),
    }
}

fn field_str_list(key: &str, value: &Json) -> Result<Vec<String>, String> {
    let Json::Arr(items) = value else {
        return Err(format!(
            "field `{key}` must be an array of strings, got {}",
            value.render()
        ));
    };
    items.iter().map(|v| field_str(key, v)).collect()
}

impl RunSpec {
    /// Builds a spec from a JSON object, starting from [`Default`] and
    /// overriding any of `workload`, `controller`, `insts`, `warmup`,
    /// `scale`, `seed`, `mlp`. The retired `threads` (a non-negative
    /// integer) and `telemetry` (a boolean) fields are type-checked and
    /// ignored, so specs that still carry them stay readable.
    ///
    /// # Errors
    ///
    /// Rejects non-objects, unknown fields (typos should fail loudly, not
    /// silently run the default experiment), and ill-typed values.
    pub fn from_json(doc: &Json) -> Result<RunSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("run spec must be an object, got {}", doc.render()));
        };
        let mut spec = RunSpec::default();
        for (key, value) in pairs {
            match key.as_str() {
                "workload" => spec.workload = field_str(key, value)?,
                "controller" => spec.controller = field_str(key, value)?,
                "insts" => spec.insts = field_u64(key, value)?,
                "warmup" => spec.warmup = field_u64(key, value)?,
                "scale" => spec.scale = field_u64(key, value)?,
                "seed" => spec.seed = field_u64(key, value)?,
                "mlp" => spec.mlp = field_u64(key, value)?,
                "threads" => {
                    field_u64(key, value)?;
                }
                "telemetry" => {
                    field_bool(key, value)?;
                }
                other => return Err(format!("unknown run spec field `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The spec as a JSON object (every field, in declaration order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("controller", Json::from(self.controller.as_str())),
            ("insts", Json::from(self.insts)),
            ("warmup", Json::from(self.warmup)),
            ("scale", Json::from(self.scale)),
            ("seed", Json::from(self.seed)),
            ("mlp", Json::from(self.mlp)),
        ])
    }

    /// Checks names and numeric ranges without running anything.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let scale = Scale {
            divisor: self.scale.max(1),
        };
        if by_name(&self.workload, scale).is_none() {
            return Err(format!("unknown workload `{}`", self.workload));
        }
        if controller_kind(&self.controller, scale).is_none() {
            return Err(format!("unknown controller `{}`", self.controller));
        }
        if self.scale == 0 {
            return Err("`scale` must be at least 1".to_owned());
        }
        if self.insts == 0 {
            return Err("`insts` must be at least 1".to_owned());
        }
        if self.mlp == 0 {
            return Err("`mlp` must be at least 1".to_owned());
        }
        Ok(())
    }

    /// Runs the spec to completion. The construction mirrors
    /// `baryon-cli run` line for line, so results (and their
    /// [`RunResult::to_json`] renderings) are identical across entry
    /// points.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn execute(&self) -> Result<RunResult, String> {
        self.execute_with(None)
    }

    /// [`RunSpec::execute`] under a fleet policy: controller overrides are
    /// overlaid onto the run's design point and the policy's config
    /// generation is stamped into the result. `None` is the baseline and
    /// bit-identical to [`RunSpec::execute`].
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn execute_with(&self, policy: Option<&FleetPolicy>) -> Result<RunResult, String> {
        let mut system = self.build_system_with(policy)?;
        Ok(stamp_generation(system.run(self.insts), policy))
    }

    /// Constructs the [`System`] this spec describes without running it —
    /// the shared front half of [`RunSpec::execute`] and the checkpoint
    /// paths, so a resumed run is built from byte-identical configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn build_system(&self) -> Result<System, String> {
        self.build_system_with(None)
    }

    /// [`RunSpec::build_system`] with a fleet policy overlaid onto the
    /// resolved controller configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn build_system_with(&self, policy: Option<&FleetPolicy>) -> Result<System, String> {
        self.validate()?;
        let scale = Scale {
            divisor: self.scale,
        };
        let workload = by_name(&self.workload, scale).expect("validated");
        let kind = apply_policy(
            controller_kind(&self.controller, scale).expect("validated"),
            policy,
        );
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = self.warmup;
        cfg.mlp = self.mlp as usize;
        Ok(System::new(cfg, &workload, self.seed))
    }

    /// Snapshots an in-progress run of this spec as a [`Checkpoint`].
    pub fn checkpoint_of(&self, system: &System) -> Checkpoint {
        let mut w = Writer::new();
        system.save_state(&mut w);
        Checkpoint {
            spec_json: self.to_json().render(),
            workload: self.workload.clone(),
            seed: self.seed,
            ops: system.run_ops(),
            state: w.into_bytes(),
        }
    }

    /// Runs the spec to completion, writing a rotating checkpoint into
    /// `dir` every `every` trace operations (the newest `keep` are
    /// retained). The returned result is bit-identical to
    /// [`RunSpec::execute`] — checkpointing only observes the run, it
    /// never perturbs it.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error. A checkpoint that cannot
    /// be written (full or faulty disk) is logged and skipped — the run
    /// itself never fails over its recovery accelerator.
    pub fn execute_with_checkpoints(
        &self,
        dir: &Path,
        every: u64,
        keep: usize,
    ) -> Result<RunResult, String> {
        self.execute_observed(every, Some((dir, keep)), &mut |_| {})
    }

    /// Runs the spec to completion incrementally, invoking `observe` with
    /// a [`RunProgress`] snapshot every `every` trace operations (and once
    /// more when the run completes). When `checkpoints` is
    /// `Some((dir, keep))`, a rotating checkpoint is also written at each
    /// step. Observation and checkpointing only watch the run — the
    /// result is bit-identical to [`RunSpec::execute`].
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error. A checkpoint that cannot
    /// be written (full or faulty disk) is logged and skipped — the run
    /// itself never fails over its recovery accelerator.
    pub fn execute_observed(
        &self,
        every: u64,
        checkpoints: Option<(&Path, usize)>,
        observe: &mut dyn FnMut(RunProgress),
    ) -> Result<RunResult, String> {
        self.execute_observed_with(every, checkpoints, observe, None)
    }

    /// [`RunSpec::execute_observed`] under a fleet policy (see
    /// [`RunSpec::execute_with`]).
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error. A checkpoint that cannot
    /// be written (full or faulty disk) is logged and skipped — the run
    /// itself never fails over its recovery accelerator.
    pub fn execute_observed_with(
        &self,
        every: u64,
        checkpoints: Option<(&Path, usize)>,
        observe: &mut dyn FnMut(RunProgress),
        policy: Option<&FleetPolicy>,
    ) -> Result<RunResult, String> {
        let every = every.max(1);
        let mut system = self.build_system_with(policy)?;
        system.begin(self.insts);
        loop {
            let done = system.advance(every);
            if let Some((dir, keep)) = checkpoints {
                if !done {
                    // Checkpoints are a recovery accelerator, not the source
                    // of truth (the journal is): a write failure — a full or
                    // lying disk under chaos — degrades resume granularity
                    // but must never fail the run itself.
                    if let Err(e) =
                        self.checkpoint_of(&system)
                            .save_rotating(dir, CHECKPOINT_PREFIX, keep)
                    {
                        eprintln!("baryon: skipping checkpoint into {}: {e}", dir.display());
                    }
                }
            }
            observe(system.run_progress().expect("run in progress"));
            if done {
                return Ok(stamp_generation(system.finish(), policy));
            }
        }
    }
}

/// Restores the run captured by the checkpoint at `path` and runs it to
/// completion, returning the embedded spec and the final result. The
/// result is bit-identical to an uninterrupted [`RunSpec::execute`] of
/// the same spec.
///
/// # Errors
///
/// Any [`RestoreError`]: an unreadable/corrupt file, a state blob that
/// does not decode against the rebuilt system, or an embedded spec that
/// disagrees with the checkpoint envelope.
pub fn resume_from(path: &Path) -> Result<(RunSpec, RunResult), RestoreError> {
    resume_from_with(path, None)
}

/// [`resume_from`] under a fleet policy: the system is rebuilt with the
/// same overlaid configuration the checkpointed run executed with, so a
/// shard respawned mid-generation resumes its jobs correctly.
///
/// # Errors
///
/// Any [`RestoreError`] (see [`resume_from`]).
pub fn resume_from_with(
    path: &Path,
    policy: Option<&FleetPolicy>,
) -> Result<(RunSpec, RunResult), RestoreError> {
    let ckpt = Checkpoint::read_from(path)?;
    let doc = parse(&ckpt.spec_json)
        .map_err(|e| RestoreError::SpecMismatch(format!("embedded spec is not valid JSON: {e}")))?;
    let spec = RunSpec::from_json(&doc).map_err(RestoreError::SpecMismatch)?;
    if spec.workload != ckpt.workload {
        return Err(RestoreError::SpecMismatch(format!(
            "envelope workload `{}` disagrees with embedded spec `{}`",
            ckpt.workload, spec.workload
        )));
    }
    if spec.seed != ckpt.seed {
        return Err(RestoreError::SpecMismatch(format!(
            "envelope seed {} disagrees with embedded spec {}",
            ckpt.seed, spec.seed
        )));
    }
    let mut system = spec
        .build_system_with(policy)
        .map_err(RestoreError::SpecMismatch)?;
    let mut r = Reader::new(&ckpt.state);
    system.load_state(&mut r)?;
    r.finish()?;
    if !system.run_in_progress() {
        return Err(RestoreError::SpecMismatch(
            "checkpoint does not carry an in-progress run".to_owned(),
        ));
    }
    system.advance(u64::MAX);
    Ok((spec, stamp_generation(system.finish(), policy)))
}

/// A cross product of workloads × controllers sharing one set of knobs —
/// the shape of every figure sweep in the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Workload names (the grid's rows).
    pub workloads: Vec<String>,
    /// Controller names (the grid's columns).
    pub controllers: Vec<String>,
    /// Knobs shared by every cell (its `workload`/`controller` are ignored).
    pub base: RunSpec,
}

impl GridSpec {
    /// Builds a grid from a JSON object with `workloads` and `controllers`
    /// string arrays plus any [`RunSpec`] knob overrides (including the
    /// retired `threads` and `telemetry`, checked and ignored as there).
    ///
    /// # Errors
    ///
    /// Rejects empty axes, unknown fields, and ill-typed values.
    pub fn from_json(doc: &Json) -> Result<GridSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("grid spec must be an object, got {}", doc.render()));
        };
        let mut workloads = Vec::new();
        let mut controllers = Vec::new();
        let mut base = RunSpec::default();
        for (key, value) in pairs {
            match key.as_str() {
                "workloads" => workloads = field_str_list(key, value)?,
                "controllers" => controllers = field_str_list(key, value)?,
                "insts" => base.insts = field_u64(key, value)?,
                "warmup" => base.warmup = field_u64(key, value)?,
                "scale" => base.scale = field_u64(key, value)?,
                "seed" => base.seed = field_u64(key, value)?,
                "mlp" => base.mlp = field_u64(key, value)?,
                "threads" => {
                    field_u64(key, value)?;
                }
                "telemetry" => {
                    field_bool(key, value)?;
                }
                other => return Err(format!("unknown grid spec field `{other}`")),
            }
        }
        if workloads.is_empty() {
            return Err("grid spec needs a non-empty `workloads` array".to_owned());
        }
        if controllers.is_empty() {
            return Err("grid spec needs a non-empty `controllers` array".to_owned());
        }
        let grid = GridSpec {
            workloads,
            controllers,
            base,
        };
        for cell in grid.expand() {
            cell.validate()?;
        }
        Ok(grid)
    }

    /// The individual runs, row-major (`workloads` outer, `controllers`
    /// inner) — the order every figure table uses.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut cells = Vec::with_capacity(self.workloads.len() * self.controllers.len());
        for w in &self.workloads {
            for c in &self.controllers {
                let mut cell = self.base.clone();
                cell.workload = w.clone();
                cell.controller = c.clone();
                cells.push(cell);
            }
        }
        cells
    }
}

/// A job body as accepted by `baryon-serve`: either one run or a grid
/// (an object whose single distinguishing key is `grid`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// One simulation.
    Run(RunSpec),
    /// A workloads × controllers sweep.
    Grid(GridSpec),
}

impl JobSpec {
    /// Parses either shape: `{"grid": {...}}` or a bare [`RunSpec`] object.
    ///
    /// # Errors
    ///
    /// Propagates the underlying spec errors.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        if let Json::Obj(pairs) = doc {
            if let Some((_, grid)) = pairs.iter().find(|(k, _)| k == "grid") {
                if pairs.len() != 1 {
                    return Err("a grid job must contain only the `grid` field".to_owned());
                }
                return GridSpec::from_json(grid).map(JobSpec::Grid);
            }
        }
        RunSpec::from_json(doc).map(JobSpec::Run)
    }

    /// The spec echoed back as JSON (what `GET /v1/jobs/<id>` reports).
    pub fn to_json(&self) -> Json {
        match self {
            JobSpec::Run(spec) => spec.to_json(),
            JobSpec::Grid(grid) => Json::obj([(
                "grid",
                Json::obj([
                    (
                        "workloads",
                        Json::arr(grid.workloads.iter().map(|w| Json::from(w.as_str()))),
                    ),
                    (
                        "controllers",
                        Json::arr(grid.controllers.iter().map(|c| Json::from(c.as_str()))),
                    ),
                    ("insts", Json::from(grid.base.insts)),
                    ("warmup", Json::from(grid.base.warmup)),
                    ("scale", Json::from(grid.base.scale)),
                    ("seed", Json::from(grid.base.seed)),
                    ("mlp", Json::from(grid.base.mlp)),
                ]),
            )]),
        }
    }

    /// Number of individual simulations this job performs.
    pub fn runs(&self) -> usize {
        match self {
            JobSpec::Run(_) => 1,
            JobSpec::Grid(grid) => grid.workloads.len() * grid.controllers.len(),
        }
    }

    /// Executes the job, producing its result document: a bare
    /// [`RunResult::to_json`] for a single run, or
    /// `{"results": [...]}` (row-major) for a grid.
    ///
    /// # Errors
    ///
    /// Returns the first cell's error message; cells are validated up
    /// front so partial grids are not silently dropped.
    pub fn execute(&self) -> Result<Json, String> {
        match self {
            JobSpec::Run(spec) => spec.execute().map(|r| r.to_json()),
            JobSpec::Grid(grid) => {
                let results = grid
                    .expand()
                    .iter()
                    .map(|cell| cell.execute().map(|r| r.to_json()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Json::obj([("results", Json::Arr(results))]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_sim::json::parse;

    #[test]
    fn controller_names_all_resolve() {
        let scale = Scale { divisor: 1024 };
        for name in CONTROLLER_NAMES {
            assert!(controller_kind(name, scale).is_some(), "{name}");
        }
        assert!(controller_kind("nope", scale).is_none());
    }

    #[test]
    fn run_spec_json_roundtrip() {
        let spec = RunSpec {
            workload: "ycsb-a".into(),
            controller: "dice".into(),
            insts: 1000,
            warmup: 10,
            scale: 1024,
            seed: 7,
            mlp: 2,
        };
        let back = RunSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
    }

    #[test]
    fn sparse_spec_fills_cli_defaults() {
        let doc = parse(r#"{"workload":"ycsb-a"}"#).expect("valid json");
        let spec = RunSpec::from_json(&doc).expect("valid spec");
        assert_eq!(spec.workload, "ycsb-a");
        assert_eq!(spec.controller, "baryon");
        assert_eq!(spec.insts, 150_000);
        assert_eq!(spec.warmup, 50_000);
        assert_eq!(spec.scale, 256);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.mlp, 1);
    }

    #[test]
    fn unknown_and_ill_typed_fields_rejected() {
        for bad in [
            r#"{"workloadd":"ycsb-a"}"#,
            r#"{"insts":"many"}"#,
            r#"{"insts":-5}"#,
            r#"{"workload":7}"#,
            r#"{"workload":"nope"}"#,
            r#"{"controller":"nope"}"#,
            r#"{"insts":0}"#,
            r#"{"scale":0}"#,
            r#"{"mlp":0}"#,
            r#"{"threads":"eight"}"#,
            r#"{"telemetry":"yes"}"#,
            r#"[1,2]"#,
        ] {
            let doc = parse(bad).expect("valid json");
            assert!(RunSpec::from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn retired_threads_field_is_read_and_dropped() {
        let doc =
            parse(r#"{"workload":"ycsb-a","threads":8,"telemetry":true}"#).expect("valid json");
        let spec = RunSpec::from_json(&doc).expect("valid spec");
        let rendered = spec.to_json().render();
        assert!(!rendered.contains("threads") && !rendered.contains("telemetry"));
        let doc = parse(
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"],
                      "threads":8,"telemetry":true}}"#,
        )
        .expect("valid json");
        let job = JobSpec::from_json(&doc).expect("valid grid");
        let rendered = job.to_json().render();
        assert!(!rendered.contains("threads") && !rendered.contains("telemetry"));
    }

    #[test]
    fn execute_matches_direct_system_run() {
        let spec = RunSpec {
            workload: "ycsb-a".into(),
            controller: "simple".into(),
            insts: 5_000,
            warmup: 1_000,
            scale: 1024,
            seed: 9,
            mlp: 1,
        };
        let via_spec = spec.execute().expect("runs");

        let scale = Scale { divisor: 1024 };
        let workload = by_name("ycsb-a", scale).expect("known");
        let kind = controller_kind("simple", scale).expect("known");
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = 1_000;
        cfg.mlp = 1;
        let direct = System::new(cfg, &workload, 9).run(5_000);

        assert_eq!(via_spec.to_json().render(), direct.to_json().render());
    }

    #[test]
    fn grid_expands_row_major() {
        let doc = parse(
            r#"{"grid":{"workloads":["ycsb-a","pr.twi"],
                      "controllers":["simple","dice"],
                      "insts":1000,"scale":1024}}"#,
        )
        .expect("valid json");
        let JobSpec::Grid(grid) = JobSpec::from_json(&doc).expect("valid grid") else {
            panic!("expected a grid job");
        };
        let cells = grid.expand();
        let names: Vec<(String, String)> = cells
            .iter()
            .map(|c| (c.workload.clone(), c.controller.clone()))
            .collect();
        assert_eq!(
            names,
            [
                ("ycsb-a".to_owned(), "simple".to_owned()),
                ("ycsb-a".to_owned(), "dice".to_owned()),
                ("pr.twi".to_owned(), "simple".to_owned()),
                ("pr.twi".to_owned(), "dice".to_owned()),
            ]
        );
        assert!(cells.iter().all(|c| c.insts == 1000 && c.scale == 1024));
    }

    #[test]
    fn grid_rejects_empty_axes_and_extras() {
        for bad in [
            r#"{"grid":{"controllers":["simple"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"]}}"#,
            r#"{"grid":{"workloads":[],"controllers":["simple"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["nope"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"]},"insts":5}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"],"threads":"eight"}}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"],"telemetry":"yes"}}"#,
        ] {
            let doc = parse(bad).expect("valid json");
            assert!(JobSpec::from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("baryon-spec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> RunSpec {
        RunSpec {
            workload: "ycsb-a".into(),
            controller: "baryon".into(),
            insts: 5_000,
            warmup: 2_000,
            scale: 1024,
            seed: 11,
            mlp: 1,
        }
    }

    #[test]
    fn checkpointed_run_matches_uninterrupted() {
        let spec = small_spec();
        let golden = spec.execute().expect("golden run");

        let dir = temp_dir("ckpt");
        let observed = spec
            .execute_with_checkpoints(&dir, 500, 3)
            .expect("checkpointed run");
        assert_eq!(
            observed.to_json().render(),
            golden.to_json().render(),
            "checkpointing perturbed the run"
        );

        // At most `keep` files remain, and the newest resumes to the
        // same result as the uninterrupted golden.
        let latest = Checkpoint::latest_in(&dir, CHECKPOINT_PREFIX)
            .expect("scan checkpoints")
            .expect("at least one checkpoint");
        let files = std::fs::read_dir(&dir).expect("dir").count();
        assert!(files <= 3, "rotation kept {files} files");
        let (back_spec, resumed) = resume_from(&latest).expect("resume");
        assert_eq!(back_spec, spec);
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "resumed run diverged from golden"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn resume_rejects_tampered_envelope() {
        let spec = small_spec();
        let dir = temp_dir("tamper");
        std::fs::create_dir_all(&dir).expect("mkdir");

        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        assert!(!system.advance(500), "run too short for test");
        let mut ckpt = spec.checkpoint_of(&system);
        ckpt.seed = spec.seed + 1; // envelope no longer matches the spec
        let path = dir.join("bad.ckpt");
        ckpt.write_to(&path).expect("write");
        match resume_from(&path) {
            Err(RestoreError::SpecMismatch(msg)) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn policy_overlay_changes_run_and_stamps_generation() {
        let spec = small_spec();
        let baseline = spec.execute().expect("baseline");
        // An empty policy at generation 0 is bit-identical to no policy.
        let noop = FleetPolicy::default();
        let under_noop = spec.execute_with(Some(&noop)).expect("noop policy");
        assert_eq!(under_noop.to_json().render(), baseline.to_json().render());
        // A real override perturbs the run and stamps its generation.
        let policy = FleetPolicy {
            generation: 5,
            commit_all: Some(true),
            ..FleetPolicy::default()
        };
        let under_policy = spec.execute_with(Some(&policy)).expect("policy run");
        assert_eq!(under_policy.config_generation, 5);
        assert!(
            under_policy
                .to_json()
                .render()
                .contains("\"config_generation\":5"),
            "generation missing from the document"
        );
        assert_ne!(
            under_policy.total_cycles, baseline.total_cycles,
            "commit-all override did not change the run"
        );
    }

    #[test]
    fn policy_resume_matches_uninterrupted_policy_run() {
        let spec = small_spec();
        let policy = FleetPolicy {
            generation: 2,
            zero_opt: Some(false),
            ..FleetPolicy::default()
        };
        let golden = spec.execute_with(Some(&policy)).expect("golden");
        let dir = temp_dir("policy-ckpt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let observed = spec
            .execute_observed_with(500, Some((&dir, 3)), &mut |_| {}, Some(&policy))
            .expect("checkpointed run");
        assert_eq!(observed.to_json().render(), golden.to_json().render());
        let latest = Checkpoint::latest_in(&dir, CHECKPOINT_PREFIX)
            .expect("scan")
            .expect("checkpoint exists");
        let (_, resumed) = resume_from_with(&latest, Some(&policy)).expect("resume");
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "policy-aware resume diverged"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn job_spec_dispatches_on_grid_key() {
        let run = parse(r#"{"workload":"ycsb-a"}"#).expect("json");
        assert!(matches!(
            JobSpec::from_json(&run).expect("run"),
            JobSpec::Run(_)
        ));
        let grid =
            parse(r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"]}}"#).expect("json");
        let job = JobSpec::from_json(&grid).expect("grid");
        assert!(matches!(job, JobSpec::Grid(_)));
        assert_eq!(job.runs(), 1);
        // The echo names both axes.
        let echo = job.to_json().render();
        assert!(echo.contains("\"workloads\""), "{echo}");
    }
}
