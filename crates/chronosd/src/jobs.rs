//! Named jobs: persistent fleet runs and checkpointable sweeps hosted by
//! the daemon, scheduled on a bounded worker pool.
//!
//! A job enters the table one of two ways:
//!
//! * **submit** — [`JobSpec::from_json`] parses the wire spec. It is the
//!   one place that knows the experiment presets: `e16-fleet`,
//!   `e17-fleet` and `e18-fleet` resolve there, once, into a
//!   [`fleet::FleetConfig`], and `e16-sweep`/`e18-sweep` into the list
//!   of row configurations a [`JobSpec::Sweep`] walks. From there on the
//!   job layer handles configurations, never experiments. The scheduling
//!   knobs travel beside the spec as [`Params`], and the parse also
//!   yields the *normalized* spec object — every recognised key with its
//!   resolved value — that the state-dir manifest records.
//! * **adoption** — an already restored simulation is handed to
//!   [`JobTable::adopt_fleet`] / [`JobTable::adopt_sweep`]. Boot from a
//!   state dir and the daemon's `resume` command share this path. A
//!   resumed job's spec is just `{"kind":"resume"}` (or `resume-sweep`):
//!   its checkpoint is the authoritative copy.
//!
//! A job owns one simulation and is stepped in `run_until` **slices**
//! (default 60 simulated seconds) by a shared pool of N workers (default
//! `cores - 1`). Scheduling is cooperative round-robin: a worker pops the
//! next runnable job from the queue, steps exactly one slice, re-enqueues
//! the job at the back, and takes the next one — so a 10⁶-client fleet
//! cannot starve small jobs, and no job ever owns a thread. Every step is
//! wrapped in `catch_unwind`: a panicking job transitions to
//! [`JobState::Failed`] with the panic message in its status while the
//! pool keeps serving every other job.
//!
//! Between slices the [`fleet::Fleet`] is *parked* in a shared slot,
//! which is the whole concurrency story:
//!
//! * the worker takes the fleet out, steps one slice without holding any
//!   lock, publishes a fresh [`FleetProgress`] snapshot, and puts the
//!   fleet back;
//! * server threads that need the live state (`status`, `report`,
//!   `checkpoint`) wait on the slot condvar until the fleet is parked —
//!   so every observation and every checkpoint lands exactly on a
//!   `run_until` boundary, which the engine's property tests prove is
//!   invisible to the simulation (`piecewise_runs_equal_one_continuous_run`,
//!   `resume_equals_uninterrupted_run`).
//!
//! Fleets and sweeps share one stepper: it runs the parked fleet slice by
//! slice to its configured horizon. There a fleet job is done, while a
//! sweep records the row's final checkpoint and report and builds (and
//! parks) the next row's fleet. The slot therefore always holds the
//! *current row*, so a sweep is observable, pausable (`pause_at_row` at
//! a row's start), and checkpointable — the per-row cursor persists as a
//! `SWP1` sidecar ([`fleet::checkpoint::SweepCursor`]). A done sweep
//! serves its rows as plain [`FleetReport`]s; callers that want the
//! figure assemble it with `e16_result_from_rows`/`e18_result_from_rows`.
//!
//! Determinism follows: a job's final report depends only on its
//! [`fleet::FleetConfig`] — not on slice length, worker count, how often
//! an operator polled, or whether the run was checkpointed into a
//! different process halfway through.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use chronos_pitfalls::experiments::{e16_config, e17_config, e18_config, e18_grid};
use fleet::checkpoint::SweepCursor;
use fleet::config::MAX_RESOLVERS;
use fleet::engine::{Fleet, FleetProgress, FleetReport};
use fleet::metrics::FleetMetrics;
use fleet::FleetConfig;
use netsim::time::{SimDuration, SimTime};

use crate::json::Json;
use crate::metrics::{DaemonObs, JobMetrics};

/// Default slice length in simulated seconds between observation points.
pub const DEFAULT_SLICE_S: u64 = 60;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Panic isolation is the pool's job (`catch_unwind` per slice); a
/// poisoned lock must degrade to "last write wins", never to a daemon
/// panic on an observer thread.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a job runs, as [`JobSpec::from_json`] resolves it from the
/// `spec` object of a `submit` request (see `docs/OPERATIONS.md` for the
/// wire format).
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One fleet run: an `e16-fleet`, `e17-fleet` or `e18-fleet` preset,
    /// already resolved into its configuration with `threads` set
    /// (boxed: a configuration is an order of magnitude larger than the
    /// other variants).
    Fleet(Box<FleetConfig>),
    /// A list of fleet runs (*rows*) stepped in order, each with
    /// `threads` set, so the grid can be observed, paused at row
    /// boundaries, and checkpointed (`SWP1` cursor) like any other job.
    /// `e16-sweep` resolves to `e16_config` for `k = 0..=resolvers`
    /// poisoned caches, `e18-sweep` to `e18_config` over
    /// [`chronos_pitfalls::experiments::e18_grid`].
    Sweep(Vec<FleetConfig>),
    /// A supervision probe: the job panics on its first slice. Operators
    /// (and CI) use it to verify the pool's panic isolation — the probe
    /// must land in `failed` with this message while every other job
    /// keeps stepping, and `chronosd_job_panics_total` must tick.
    PanicProbe {
        /// The panic payload, echoed into `status.error`.
        message: String,
    },
}

/// A parsed `submit` spec: what to run, how to schedule it, and the
/// normalized spec object the state-dir manifest records.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// What the job runs.
    pub spec: JobSpec,
    /// How the pool schedules it.
    pub params: Params,
    /// The kind plus every recognised key with its resolved value
    /// (defaults filled in, unknown keys dropped). Parsing it again
    /// yields the same spec and params.
    pub normalized: Json,
}

/// Reads `submit` spec fields and records each recognised key with its
/// resolved value, so the normalized spec is a by-product of parsing
/// and cannot drift from it.
struct SpecReader<'a> {
    spec: &'a Json,
    normalized: Vec<(String, Json)>,
}

impl SpecReader<'_> {
    /// Non-negative integer field, `default` when absent, raised to `min`.
    fn u64(&mut self, key: &str, default: u64, min: u64) -> Result<u64, String> {
        let value = match self.spec.get(key) {
            None => default,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("{key}: expected a non-negative integer"))?,
        }
        .max(min);
        self.normalized.push((key.to_string(), Json::u64(value)));
        Ok(value)
    }

    fn usize(&mut self, key: &str, default: usize, min: usize) -> Result<usize, String> {
        let value = self.u64(key, default as u64, min as u64)?;
        usize::try_from(value).map_err(|_| format!("{key}: {value} is out of range"))
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, String> {
        let value = match self.spec.get(key) {
            None => default,
            Some(v) => v
                .as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{key}: expected a number"))?,
        };
        self.normalized.push((key.to_string(), Json::f64(value)));
        Ok(value)
    }

    /// Optional anchor: absent or `null` is `None` and is not recorded.
    fn anchor(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.spec.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => self.u64(key, 0, 0).map(Some),
        }
    }

    /// `poisoned_resolvers`, defaulting to every cache.
    fn poisoned(&mut self, resolvers: usize) -> Result<usize, String> {
        let poisoned = self.usize("poisoned_resolvers", resolvers, 0)?;
        if poisoned > resolvers {
            return Err(format!(
                "poisoned_resolvers: {poisoned} exceeds resolvers ({resolvers})"
            ));
        }
        Ok(poisoned)
    }

    /// The scheduling knobs of fleet and sweep kinds; a sweep pauses at a
    /// row (`pause_at_row`), a fleet at a simulated time (`pause_at_s`).
    fn params(&mut self, sweep: bool) -> Result<Params, String> {
        let threads = self.usize("threads", 1, 1)?;
        let slice_s = self.u64("slice_s", DEFAULT_SLICE_S, 1)?;
        let (pause_at_s, pause_at_row) = if sweep {
            (None, self.anchor("pause_at_row")?.map(|row| row as usize))
        } else {
            (self.anchor("pause_at_s")?, None)
        };
        Ok(Params {
            threads,
            slice_s,
            pause_at_s,
            pause_at_row,
        })
    }
}

impl JobSpec {
    /// Parse a `submit` spec object, resolving fleet presets into their
    /// [`FleetConfig`]. Unknown kinds and malformed fields are rejected
    /// with a message naming the offending field; unknown keys are
    /// ignored and left out of [`Submission::normalized`].
    pub fn from_json(spec: &Json) -> Result<Submission, String> {
        let kind = spec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "spec.kind: expected a string".to_string())?;
        let mut r = SpecReader {
            spec,
            normalized: vec![("kind".to_string(), Json::str(kind))],
        };
        let (spec, params) = match kind {
            "e16-fleet" | "e17-fleet" | "e18-fleet" => {
                let seed = r.u64("seed", 7, 0)?;
                let clients = r.usize("clients", 1_000, 1)?;
                let default_resolvers = if kind == "e17-fleet" { 8 } else { 4 };
                let resolvers = r.usize("resolvers", default_resolvers, 1)?;
                let mut config = match kind {
                    "e16-fleet" => e16_config(seed, clients, resolvers, r.poisoned(resolvers)?),
                    "e17-fleet" => {
                        let loss = r.f64("loss", 0.05)?;
                        let coverage = r.usize("outage_coverage", 0, 0)?;
                        if coverage > resolvers {
                            return Err(format!(
                                "outage_coverage: {coverage} exceeds resolvers ({resolvers})"
                            ));
                        }
                        e17_config(seed, clients, resolvers, loss, coverage)
                    }
                    _ => {
                        let deployment = r.f64("deployment", 0.5)?;
                        if !(0.0..=1.0).contains(&deployment) {
                            return Err(format!("deployment: {deployment} outside [0, 1]"));
                        }
                        let poisoned = r.poisoned(resolvers)?;
                        e18_config(seed, clients, resolvers, deployment, poisoned)
                    }
                };
                let params = r.params(false)?;
                config.threads = params.threads;
                (JobSpec::Fleet(Box::new(config)), params)
            }
            "e16-sweep" | "e18-sweep" => {
                let seed = r.u64("seed", 7, 0)?;
                let clients = r.usize("clients", 1_000, 1)?;
                let resolvers = r.usize("resolvers", 4, 1)?;
                // The grid grows with `resolvers`, so bound it before
                // building one configuration per row.
                if resolvers > MAX_RESOLVERS {
                    return Err(format!(
                        "resolvers: {resolvers} exceeds the maximum ({MAX_RESOLVERS})"
                    ));
                }
                let params = r.params(true)?;
                let mut configs: Vec<FleetConfig> = if kind == "e16-sweep" {
                    (0..=resolvers)
                        .map(|k| e16_config(seed, clients, resolvers, k))
                        .collect()
                } else {
                    e18_grid(resolvers)
                        .into_iter()
                        .map(|(deployment, k)| e18_config(seed, clients, resolvers, deployment, k))
                        .collect()
                };
                for config in &mut configs {
                    config.threads = params.threads;
                }
                (JobSpec::Sweep(configs), params)
            }
            "panic-probe" => {
                let message = r
                    .spec
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("panic probe")
                    .to_string();
                r.normalized
                    .push(("message".to_string(), Json::str(message.clone())));
                (JobSpec::PanicProbe { message }, Params::default())
            }
            other => {
                return Err(format!(
                    "spec.kind: unknown kind {other:?} (expected e16-fleet, e17-fleet, \
                     e18-fleet, e16-sweep, e18-sweep or panic-probe)"
                ))
            }
        };
        Ok(Submission {
            spec,
            params,
            normalized: Json::Obj(r.normalized),
        })
    }
}

/// The whole spec a resumed job records (`kind` is `"resume"` or
/// `"resume-sweep"`): the checkpoint it was adopted from is the
/// authoritative copy of everything else.
pub(crate) fn resume_spec(kind: &str) -> Json {
    Json::Obj(vec![("kind".to_string(), Json::str(kind))])
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no worker has built the simulation yet.
    Queued,
    /// In the run queue (or on a worker) actively stepping slices.
    Running,
    /// Parked at the requested `pause_at_s` / `pause_at_row` boundary;
    /// not in the run queue until `unpause` (or `stop`). The simulation
    /// is observable and checkpointable.
    Paused,
    /// Reached the horizon; final state retained for `report`/`checkpoint`.
    Done,
    /// Stopped by an operator at a slice boundary; state retained.
    Stopped,
    /// The job panicked, or its state file was corrupt at boot; see the
    /// error.
    Failed,
}

impl JobState {
    /// Wire label (`"running"`, `"paused"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Stopped => "stopped",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire label back into a state (manifest loading).
    pub fn parse(label: &str) -> Option<JobState> {
        Some(match label {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "paused" => JobState::Paused,
            "done" => JobState::Done,
            "stopped" => JobState::Stopped,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the job will never be stepped again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Stopped | JobState::Failed)
    }
}

/// A point-in-time view of a job, cheap to clone and render.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Lifecycle state.
    pub state: JobState,
    /// Latest end-of-slice progress of the live fleet — for sweep jobs,
    /// the *current row's* fleet (`None` before the first slice).
    pub progress: Option<FleetProgress>,
    /// Slices completed so far (monotonic; watch cursors key off it).
    pub slices: u64,
    /// Sweep cursor: `(rows_done, rows_total)` for sweep jobs.
    pub sweep_rows: Option<(usize, usize)>,
    /// Failure message when `state == Failed`.
    pub error: Option<String>,
}

/// The persistable scheduling parameters of a job: what the state-dir
/// manifest records alongside the checkpoint file so a rebooted daemon
/// steps the job the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Worker threads for intra-fleet sharded stepping.
    pub threads: usize,
    /// Slice length in simulated seconds.
    pub slice_s: u64,
    /// Remaining pause anchor (simulated seconds), if any.
    pub pause_at_s: Option<u64>,
    /// Remaining row-boundary pause anchor (sweeps), if any.
    pub pause_at_row: Option<usize>,
}

impl Default for Params {
    /// One thread, [`DEFAULT_SLICE_S`] slices, no pause anchor.
    fn default() -> Params {
        Params {
            threads: 1,
            slice_s: DEFAULT_SLICE_S,
            pause_at_s: None,
            pause_at_row: None,
        }
    }
}

/// Sweep bookkeeping: the per-row cursor that `SWP1` persists (empty
/// for fleet jobs). The worker mutates it only while the slot is empty
/// (between `take_parked` and `park`), so any observer holding the slot
/// with a parked fleet sees a cursor consistent with that fleet.
#[derive(Debug, Default)]
struct SweepBook {
    /// Every row's configuration; the row total is `configs.len()`.
    configs: Vec<FleetConfig>,
    /// Final `CHR1` checkpoint of each completed row, in row order; the
    /// current row's index is `done_blobs.len()`. Restoring one and
    /// calling `report()` reproduces the row's report byte-identically —
    /// this is how a rebooted daemon serves sweep reports without
    /// recomputing rows.
    done_blobs: Vec<Vec<u8>>,
    /// The completed rows' reports (derived from `done_blobs`).
    done_reports: Vec<FleetReport>,
}

impl SweepBook {
    /// `(rows done, rows total)` for a sweep; `None` for a fleet job.
    fn rows(&self) -> Option<(usize, usize)> {
        (!self.configs.is_empty()).then_some((self.done_blobs.len(), self.configs.len()))
    }
}

/// What the worker knows about a job between steps. Guarded by a mutex
/// that is only ever locked by the worker currently holding the job (the
/// queue hands a job to one worker at a time) or, for paused jobs, by
/// `request_unpause`/adoption — so it is never contended.
#[derive(Debug)]
enum WorkerState {
    /// Not yet built; the first step builds the simulation.
    Pending(JobSpec),
    /// Stepping the parked fleet toward its horizon (for a sweep, the
    /// current row's fleet; the rest of the cursor is in the
    /// [`SweepBook`]).
    Running,
    /// Terminal: nothing left to step.
    Finished,
}

/// What one scheduling step did, and therefore what the worker does next.
enum StepOutcome {
    /// Made progress; re-enqueue at the back of the run queue.
    Again,
    /// Parked in `paused`; `unpause` re-enqueues it.
    Idle,
    /// Terminal; never enqueued again.
    Terminal,
}

/// One hosted job: identity, live status, and the parked simulation.
pub struct Job {
    /// Unique job name (operator-chosen at submit time).
    pub name: String,
    /// Job-kind label (`"e16-fleet"`, `"e16-sweep"`, `"resume"`, ...).
    pub kind: &'static str,
    me: Weak<Job>,
    sched: Weak<Scheduler>,
    status: Mutex<JobSnapshot>,
    status_cv: Condvar,
    slot: Mutex<Option<Fleet>>,
    slot_cv: Condvar,
    stop: AtomicBool,
    unpause: AtomicBool,
    worker: Mutex<WorkerState>,
    params: Mutex<Params>,
    book: Mutex<SweepBook>,
    spec_json: Json,
    /// Per-job gauges (`None` when the table runs without observability).
    metrics: Option<JobMetrics>,
    /// The daemon logger (`None` when embedding without observability).
    logger: Option<Arc<obs::Logger>>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("state", &self.snapshot().state)
            .finish()
    }
}

/// Map a wire/manifest kind label onto the static label the job carries
/// (unknown labels — a manifest from a future version — collapse to
/// `"unknown"` rather than being rejected).
fn static_kind(label: &str) -> &'static str {
    match label {
        "e16-fleet" => "e16-fleet",
        "e17-fleet" => "e17-fleet",
        "e18-fleet" => "e18-fleet",
        "e16-sweep" => "e16-sweep",
        "e18-sweep" => "e18-sweep",
        "resume" => "resume",
        "resume-sweep" => "resume-sweep",
        "panic-probe" => "panic-probe",
        _ => "unknown",
    }
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: &Weak<Job>,
        sched: Weak<Scheduler>,
        name: String,
        kind: &'static str,
        spec_json: Json,
        params: Params,
        worker: WorkerState,
        metrics: Option<JobMetrics>,
        logger: Option<Arc<obs::Logger>>,
    ) -> Job {
        Job {
            name,
            kind,
            me: me.clone(),
            sched,
            status: Mutex::new(JobSnapshot {
                state: JobState::Queued,
                progress: None,
                slices: 0,
                sweep_rows: None,
                error: None,
            }),
            status_cv: Condvar::new(),
            slot: Mutex::new(None),
            slot_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            unpause: AtomicBool::new(false),
            worker: Mutex::new(worker),
            params: Mutex::new(params),
            book: Mutex::new(SweepBook::default()),
            spec_json,
            metrics,
            logger,
        }
    }

    /// The watch-subscriber gauge, when observability is attached (the
    /// daemon's `watch` handler holds it up/down around a stream).
    pub(crate) fn watchers_gauge(&self) -> Option<Arc<obs::Gauge>> {
        self.metrics.as_ref().map(|m| Arc::clone(&m.watchers))
    }

    /// The current status snapshot.
    pub fn snapshot(&self) -> JobSnapshot {
        lock(&self.status).clone()
    }

    /// The job's scheduling parameters (persisted in the manifest).
    pub fn params(&self) -> Params {
        *lock(&self.params)
    }

    /// The normalized submit spec (just the kind for resumed jobs), as the
    /// state-dir manifest records it.
    pub fn spec_json(&self) -> Json {
        self.spec_json.clone()
    }

    /// Ask the pool to stop the job at the next slice boundary
    /// (idempotent). A paused job has no worker, so it transitions to
    /// `stopped` right here.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut status = lock(&self.status);
        let was_paused = status.state == JobState::Paused;
        if was_paused {
            status.state = JobState::Stopped;
        }
        drop(status);
        if was_paused {
            // No worker owns a paused job (it is not in the queue), so
            // retiring its worker state here cannot race a step.
            *lock(&self.worker) = WorkerState::Finished;
            self.log_state(JobState::Stopped, None);
        }
        self.status_cv.notify_all();
        self.slot_cv.notify_all();
    }

    /// Release a [`JobState::Paused`] job back into the run queue. On a
    /// job that has not paused yet, cancels its upcoming pause anchor
    /// instead (the old fire-and-forget semantics).
    pub fn request_unpause(&self) {
        let mut status = lock(&self.status);
        if status.state != JobState::Paused {
            drop(status);
            self.unpause.store(true, Ordering::SeqCst);
            self.status_cv.notify_all();
            return;
        }
        status.state = JobState::Running;
        drop(status);
        // Safe for the same reason as in `request_stop`: between the
        // Paused→Running transition above and the enqueue below, no
        // worker can own this job.
        {
            let mut params = lock(&self.params);
            params.pause_at_s = None;
            params.pause_at_row = None;
        }
        self.unpause.store(false, Ordering::SeqCst);
        self.log_state(JobState::Running, None);
        self.status_cv.notify_all();
        if let (Some(sched), Some(me)) = (self.sched.upgrade(), self.me.upgrade()) {
            sched.enqueue(me);
        }
    }

    /// Block until the job moves past the `(seen_slices, seen_state)`
    /// cursor — another slice lands, the lifecycle state changes, or a
    /// terminal state is reached; returns the fresh snapshot. `None` on
    /// timeout.
    pub fn wait_change(
        &self,
        seen_slices: u64,
        seen_state: JobState,
        timeout: Duration,
    ) -> Option<JobSnapshot> {
        let deadline = std::time::Instant::now() + timeout;
        let mut status = lock(&self.status);
        loop {
            if status.slices != seen_slices
                || status.state != seen_state
                || status.state.is_terminal()
            {
                return Some(status.clone());
            }
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, _) = self
                .status_cv
                .wait_timeout(status, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            status = guard;
        }
    }

    /// Run `f` against the parked fleet, waiting (bounded by `timeout`)
    /// for the worker to finish its current slice. Errors for jobs that
    /// hold no simulation state (failed jobs, finished sweeps).
    pub fn with_fleet<R>(
        &self,
        timeout: Duration,
        f: impl FnOnce(&Fleet) -> R,
    ) -> Result<R, String> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = lock(&self.slot);
        loop {
            if let Some(fleet) = slot.as_ref() {
                return Ok(f(fleet));
            }
            if self.snapshot().state.is_terminal() {
                return Err(format!("job {:?} holds no fleet state", self.name));
            }
            let left = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or_else(|| format!("timed out waiting for job {:?} to park", self.name))?;
            let (guard, _) = self
                .slot_cv
                .wait_timeout(slot, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot = guard;
        }
    }

    /// Serialize the parked fleet (always at a `run_until` boundary).
    /// For sweep jobs this is the *current row's* fleet; the full sweep
    /// cursor is [`Job::sweep_cursor`].
    pub fn checkpoint(&self, timeout: Duration) -> Result<Vec<u8>, String> {
        let start = std::time::Instant::now();
        let bytes = self.with_fleet(timeout, |fleet| fleet.checkpoint())?;
        if let Some(m) = &self.metrics {
            m.checkpoint_wall.set(start.elapsed().as_secs_f64());
            m.checkpoint_bytes.set(bytes.len() as f64);
        }
        if let Some(logger) = &self.logger {
            logger.debug(
                "chronosd::jobs",
                "checkpoint taken",
                &[("job", &self.name), ("bytes", &bytes.len())],
            );
        }
        Ok(bytes)
    }

    /// The live (or final) aggregate report of a fleet job (for sweeps:
    /// the current row's fleet).
    pub fn report(&self, timeout: Duration) -> Result<FleetReport, String> {
        self.with_fleet(timeout, |fleet| fleet.report())
    }

    /// Every row's report, in row order, once a sweep has completed all
    /// of its rows (`None` before then, and for fleet jobs).
    pub fn sweep_reports(&self) -> Option<Vec<FleetReport>> {
        let book = lock(&self.book);
        matches!(book.rows(), Some((done, total)) if done == total)
            .then(|| book.done_reports.clone())
    }

    /// The report of completed sweep row `row` (rows complete in order,
    /// so this serves partial results while the sweep is still running).
    pub fn sweep_row_report(&self, row: usize) -> Option<FleetReport> {
        lock(&self.book).done_reports.get(row).cloned()
    }

    /// Serialize the sweep cursor as `SWP1` bytes: every completed row's
    /// final checkpoint plus the current row's live checkpoint. Errors
    /// for non-sweep jobs and sweeps that have not built yet.
    pub fn sweep_cursor(&self, timeout: Duration) -> Result<Vec<u8>, String> {
        let encode = |book: &SweepBook, current: Option<Vec<u8>>| {
            SweepCursor {
                configs: book.configs.clone(),
                done: book.done_blobs.clone(),
                current,
            }
            .encode()
        };
        // Complete sweeps hold no current fleet: encode the cursor from
        // the book alone. Otherwise hold the slot (fleet parked) so the
        // book cannot move while we pair it with the live checkpoint.
        let rows = lock(&self.book).rows();
        match rows {
            None => return Err(format!("job {:?} has no sweep cursor yet", self.name)),
            Some((done, total)) if done == total => return Ok(encode(&lock(&self.book), None)),
            Some(_) => {}
        }
        self.with_fleet(timeout, |fleet| {
            encode(&lock(&self.book), Some(fleet.checkpoint()))
        })
    }

    /// Whether this job is a sweep (current or resumed).
    pub fn is_sweep(&self) -> bool {
        matches!(self.kind, "e16-sweep" | "e18-sweep" | "resume-sweep")
    }

    fn log_state(&self, state: JobState, error: Option<&str>) {
        if let Some(logger) = &self.logger {
            match error {
                Some(message) => logger.error(
                    "chronosd::jobs",
                    "job failed",
                    &[("job", &self.name), ("error", &message)],
                ),
                None => logger.info(
                    "chronosd::jobs",
                    "job state change",
                    &[("job", &self.name), ("state", &state.as_str())],
                ),
            }
        }
    }

    fn set_state(&self, state: JobState, error: Option<String>) {
        self.log_state(state, error.as_deref());
        let mut status = lock(&self.status);
        status.state = state;
        if error.is_some() {
            status.error = error;
        }
        drop(status);
        self.status_cv.notify_all();
        // Terminal transitions also release `with_fleet` waiters.
        self.slot_cv.notify_all();
    }

    fn publish_slice(&self, progress: FleetProgress) {
        if let (Some(m), Some(t)) = (&self.metrics, progress.throughput) {
            m.slice_wall.set(t.wall_secs);
            m.sim_per_wall.set(t.sim_per_wall);
            m.events_per_sec.set(t.events_per_sec);
        }
        let sweep_rows = lock(&self.book).rows();
        let mut status = lock(&self.status);
        status.progress = Some(progress);
        status.slices += 1;
        if sweep_rows.is_some() {
            status.sweep_rows = sweep_rows;
        }
        drop(status);
        self.status_cv.notify_all();
    }

    fn park(&self, fleet: Fleet) {
        *lock(&self.slot) = Some(fleet);
        self.slot_cv.notify_all();
    }

    /// Take the parked fleet. `None` only if the state was lost to an
    /// earlier panic mid-slice — the caller fails the job instead of
    /// unwrapping.
    fn take_parked(&self) -> Option<Fleet> {
        lock(&self.slot).take()
    }

    /// Retire the job as stopped (worker-side or shutdown drain).
    fn finish_stopped(&self) {
        *lock(&self.worker) = WorkerState::Finished;
        self.set_state(JobState::Stopped, None);
    }

    fn finish_failed(&self, message: String) {
        *lock(&self.worker) = WorkerState::Finished;
        self.set_state(JobState::Failed, Some(message));
    }

    /// One cooperative scheduling step: build the simulation or advance
    /// it by one slice. Called by pool workers with exclusive ownership
    /// of the job (it is out of the queue while stepping).
    fn step(&self, fleet_metrics: &Option<Arc<FleetMetrics>>) -> StepOutcome {
        if self.snapshot().state.is_terminal() {
            return StepOutcome::Terminal;
        }
        if self.stop.load(Ordering::SeqCst) {
            self.finish_stopped();
            return StepOutcome::Terminal;
        }
        let worker = lock(&self.worker);
        match &*worker {
            WorkerState::Pending(spec) => {
                let spec = spec.clone();
                // The job is out of the queue while stepping, so nobody
                // else touches the worker state: safe to release the
                // guard and let build() relock it.
                drop(worker);
                self.build(spec, fleet_metrics)
            }
            WorkerState::Running => {
                drop(worker);
                self.advance(fleet_metrics)
            }
            WorkerState::Finished => StepOutcome::Terminal,
        }
    }

    /// First step: build the simulation from the spec.
    fn build(&self, spec: JobSpec, fleet_metrics: &Option<Arc<FleetMetrics>>) -> StepOutcome {
        let config = match spec {
            JobSpec::PanicProbe { message } => {
                // The probe exists to exercise the pool's catch_unwind
                // path end to end; the panic is caught one frame up.
                panic!("{message}");
            }
            JobSpec::Fleet(config) => *config,
            JobSpec::Sweep(configs) => {
                let first = configs.first().cloned().expect("a sweep has rows");
                lock(&self.book).configs = configs;
                first
            }
        };
        *lock(&self.worker) = WorkerState::Running;
        self.set_state(JobState::Running, None);
        self.launch(config, fleet_metrics);
        StepOutcome::Again
    }

    /// Build a fleet for `config` on the job's thread count, park it and
    /// publish its starting progress.
    fn launch(&self, mut config: FleetConfig, fleet_metrics: &Option<Arc<FleetMetrics>>) {
        config.threads = self.params().threads;
        let mut fleet = Fleet::new(config);
        fleet.set_metrics(fleet_metrics.clone());
        let progress = fleet.progress();
        self.park(fleet);
        self.publish_slice(progress);
    }

    /// Decide whether to pause at the current boundary. Returns `true`
    /// when the job was parked in `paused` (caller returns `Idle`).
    fn pause_here(&self) -> bool {
        if self.unpause.swap(false, Ordering::SeqCst) {
            let mut params = lock(&self.params);
            params.pause_at_s = None;
            params.pause_at_row = None;
            return false;
        }
        let mut status = lock(&self.status);
        if self.stop.load(Ordering::SeqCst) {
            // Raced with request_stop: prefer stopped over a pause that
            // nobody will ever release.
            drop(status);
            self.finish_stopped();
            return true;
        }
        status.state = JobState::Paused;
        drop(status);
        self.log_state(JobState::Paused, None);
        self.status_cv.notify_all();
        true
    }

    /// Every job's stepper: run the parked fleet one slice toward its
    /// horizon, pausing at `pause_at_s` within the row or at the start of
    /// row `pause_at_row`. At the horizon a fleet job is done, and a sweep
    /// records the row and builds the next one.
    fn advance(&self, fleet_metrics: &Option<Arc<FleetMetrics>>) -> StepOutcome {
        let lost = || {
            self.finish_failed("simulation state lost (earlier panic mid-slice)".to_string());
            StepOutcome::Terminal
        };
        let parked = lock(&self.slot)
            .as_ref()
            .map(|fleet| (fleet.now(), SimTime::ZERO + fleet.config().horizon));
        let Some((now, horizon)) = parked else {
            return lost();
        };
        let params = self.params();
        let (row, sweep) = {
            let book = lock(&self.book);
            (book.done_blobs.len(), !book.configs.is_empty())
        };
        let at_anchor = params
            .pause_at_s
            .is_some_and(|p| now >= SimTime::from_secs(p))
            || (params.pause_at_row == Some(row) && now == SimTime::ZERO);
        if at_anchor && self.pause_here() {
            return StepOutcome::Idle;
        }
        if now >= horizon && !sweep {
            *lock(&self.worker) = WorkerState::Finished;
            self.set_state(JobState::Done, None);
            return StepOutcome::Terminal;
        }
        let Some(mut fleet) = self.take_parked() else {
            return lost();
        };
        if now >= horizon {
            return self.next_row(fleet, fleet_metrics);
        }
        let mut target = (now + SimDuration::from_secs(params.slice_s)).min(horizon);
        // Re-read: pause_here() may have just cleared the anchor.
        if let Some(p) = self.params().pause_at_s.map(SimTime::from_secs) {
            if p > now {
                target = target.min(p);
            }
        }
        fleet.run_until(target);
        let progress = fleet.progress();
        self.park(fleet);
        self.publish_slice(progress);
        StepOutcome::Again
    }

    /// A sweep row reached its horizon: record its final checkpoint and
    /// report, then build the next row (the slot stays empty only inside
    /// this window, which is what keeps cursor observations consistent).
    fn next_row(&self, fleet: Fleet, fleet_metrics: &Option<Arc<FleetMetrics>>) -> StepOutcome {
        let blob = fleet.checkpoint();
        let report = fleet.report();
        drop(fleet);
        let next = {
            let mut book = lock(&self.book);
            book.done_blobs.push(blob);
            book.done_reports.push(report);
            book.configs.get(book.done_blobs.len()).cloned()
        };
        match next {
            Some(config) => {
                self.launch(config, fleet_metrics);
                StepOutcome::Again
            }
            None => {
                self.finish_sweep();
                StepOutcome::Terminal
            }
        }
    }

    /// Retire a sweep whose every row is complete.
    fn finish_sweep(&self) {
        *lock(&self.worker) = WorkerState::Finished;
        let rows = lock(&self.book).rows();
        lock(&self.status).sweep_rows = rows;
        self.set_state(JobState::Done, None);
    }
}

/// Restore every checkpoint a sweep cursor carries: the completed
/// rows' reports and the current row's fleet (`None` once every row is
/// complete). Each checkpoint must belong to its row's configuration
/// (threads aside).
fn restore_cursor(
    cursor: SweepCursor,
    fleet_metrics: Option<Arc<FleetMetrics>>,
) -> Result<(SweepBook, Option<Fleet>), String> {
    let SweepCursor {
        configs,
        done,
        current,
    } = cursor;
    if done.len() > configs.len() || (done.len() < configs.len()) != current.is_some() {
        return Err("cursor row count inconsistent with payload".to_string());
    }
    let restore = |k: usize, blob: &[u8], metrics| {
        let fleet = Fleet::restore_with(blob, metrics)
            .map_err(|e| format!("row {k} checkpoint rejected: {e}"))?;
        let expected = &configs[k];
        if (FleetConfig {
            threads: expected.threads,
            ..fleet.config().clone()
        }) != *expected
        {
            return Err(format!(
                "row {k} checkpoint belongs to a different configuration"
            ));
        }
        Ok(fleet)
    };
    let done_reports = done
        .iter()
        .enumerate()
        .map(|(k, blob)| restore(k, blob, None).map(|fleet| fleet.report()))
        .collect::<Result<Vec<_>, _>>()?;
    let current = current
        .map(|blob| restore(done.len(), &blob, fleet_metrics))
        .transpose()?;
    let book = SweepBook {
        configs,
        done_blobs: done,
        done_reports,
    };
    Ok((book, current))
}

/// The run queue shared by the pool workers. Jobs enter at submit (and
/// unpause) time and cycle `pop → step one slice → push` until they park
/// in `paused` or reach a terminal state.
#[derive(Debug)]
struct Scheduler {
    queue: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn enqueue(&self, job: Arc<Job>) {
        lock(&self.queue).push_back(job);
        self.cv.notify_one();
    }

    /// Pop the next runnable job; blocks until one arrives or shutdown.
    fn next(&self) -> Option<Arc<Job>> {
        let mut queue = lock(&self.queue);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue = guard;
        }
    }
}

/// Extract a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// One pool worker: step jobs round-robin until shutdown.
fn worker_loop(sched: Arc<Scheduler>, obs: Option<Arc<DaemonObs>>) {
    let fleet_metrics = obs.as_ref().map(|o| Arc::clone(&o.fleet));
    while let Some(job) = sched.next() {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job.step(&fleet_metrics)));
        match outcome {
            Ok(StepOutcome::Again) => {
                if let Some(o) = &obs {
                    o.slices_scheduled.inc();
                }
                sched.enqueue(job);
            }
            Ok(StepOutcome::Idle) | Ok(StepOutcome::Terminal) => {}
            Err(payload) => {
                let message = format!("job panicked: {}", panic_message(payload));
                if let Some(o) = &obs {
                    o.job_panics.inc();
                }
                job.finish_failed(message);
            }
        }
    }
}

/// The default pool size: one worker per core, minus one core left for
/// the socket handlers (never below one).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(1)
        .max(1)
}

/// The daemon's registry of named jobs, backed by the worker pool.
#[derive(Debug)]
pub struct JobTable {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    sched: Arc<Scheduler>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    obs: Option<Arc<DaemonObs>>,
}

impl Default for JobTable {
    fn default() -> JobTable {
        JobTable::new()
    }
}

impl JobTable {
    /// An empty table without observability (embedding and tests), with
    /// the default worker-pool size.
    pub fn new() -> JobTable {
        JobTable::with_config(default_workers(), None)
    }

    /// An empty table with an explicit pool size, no observability.
    pub fn with_workers(workers: usize) -> JobTable {
        JobTable::with_config(workers, None)
    }

    /// An empty table whose jobs register gauges in `obs`, attach the
    /// daemon-wide [`FleetMetrics`] to their fleets, and log lifecycle
    /// transitions through the daemon logger.
    pub fn with_observability(obs: Arc<DaemonObs>) -> JobTable {
        JobTable::with_config(default_workers(), Some(obs))
    }

    /// The fully explicit constructor: pool size and optional
    /// observability. Spawns the worker threads immediately.
    pub fn with_config(workers: usize, obs: Option<Arc<DaemonObs>>) -> JobTable {
        let sched = Arc::new(Scheduler::new());
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let sched = Arc::clone(&sched);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("chronosd-worker-{i}"))
                    .spawn(move || worker_loop(sched, obs))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        JobTable {
            jobs: Mutex::new(BTreeMap::new()),
            sched,
            workers: Mutex::new(handles),
            obs,
        }
    }

    /// The pool size (worker threads stepping jobs).
    pub fn worker_count(&self) -> usize {
        lock(&self.workers).len()
    }

    /// Register a parsed spec under `name` and enqueue it on the worker
    /// pool. Fails if the name is empty or already taken (stale terminal
    /// jobs keep their name — pick a new one).
    pub fn submit(&self, name: &str, submission: Submission) -> Result<Arc<Job>, String> {
        let Submission {
            spec,
            params,
            normalized,
        } = submission;
        let kind = static_kind(normalized.get("kind").and_then(Json::as_str).unwrap_or(""));
        let job = self.register(name, kind, normalized, params, WorkerState::Pending(spec))?;
        self.sched.enqueue(Arc::clone(&job));
        Ok(job)
    }

    /// Create and register a job without enqueueing it.
    fn register(
        &self,
        name: &str,
        kind: &'static str,
        spec_json: Json,
        params: Params,
        worker: WorkerState,
    ) -> Result<Arc<Job>, String> {
        if name.is_empty() {
            return Err("job name must not be empty".to_string());
        }
        let job_metrics = self.obs.as_ref().map(|o| o.job_metrics(name));
        let logger = self.obs.as_ref().map(|o| Arc::clone(&o.logger));
        let sched = Arc::downgrade(&self.sched);
        let job = {
            let mut jobs = lock(&self.jobs);
            if jobs.contains_key(name) {
                return Err(format!("job {name:?} already exists"));
            }
            let job = Arc::new_cyclic(|me| {
                Job::new(
                    me,
                    sched,
                    name.to_string(),
                    kind,
                    spec_json,
                    params,
                    worker,
                    job_metrics,
                    logger,
                )
            });
            jobs.insert(name.to_string(), Arc::clone(&job));
            job
        };
        if let Some(o) = &self.obs {
            o.logger.info(
                "chronosd::jobs",
                "job submitted",
                &[("job", &name), ("kind", &kind)],
            );
        }
        Ok(job)
    }

    /// Adopt a restored fleet as job `name`: park it, install `state`
    /// and the scheduling `params`, and enqueue it when `state` is
    /// `queued` or `running` (it then reports `running`). Boot from the
    /// state dir passes the manifest's state; the `resume` command
    /// passes `queued`. `spec_json` is recorded in the next manifest;
    /// `slices` restores the watch cursor.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_fleet(
        &self,
        name: &str,
        kind_label: &str,
        spec_json: Json,
        params: Params,
        fleet: Fleet,
        state: JobState,
        slices: u64,
    ) -> Result<Arc<Job>, String> {
        let job = self.register(
            name,
            static_kind(kind_label),
            spec_json,
            params,
            WorkerState::Running,
        )?;
        self.install(&job, fleet, state, slices);
        Ok(job)
    }

    /// Adopt a decoded `SWP1` cursor as sweep job `name`, with the same
    /// state handling as [`JobTable::adopt_fleet`]. Every embedded
    /// checkpoint is restored before the name is registered, so a
    /// rejected cursor leaves no job behind. A complete cursor adopts as
    /// `done`.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_sweep(
        &self,
        name: &str,
        kind_label: &str,
        spec_json: Json,
        params: Params,
        cursor: SweepCursor,
        state: JobState,
        slices: u64,
    ) -> Result<Arc<Job>, String> {
        let fleet_metrics = self.obs.as_ref().map(|o| Arc::clone(&o.fleet));
        let (book, current) = restore_cursor(cursor, fleet_metrics)
            .map_err(|e| format!("sweep cursor rejected: {e}"))?;
        let job = self.register(
            name,
            static_kind(kind_label),
            spec_json,
            params,
            WorkerState::Running,
        )?;
        *lock(&job.book) = book;
        match current {
            Some(fleet) => self.install(&job, fleet, state, slices),
            None => {
                lock(&job.status).slices = slices;
                job.finish_sweep();
            }
        }
        Ok(job)
    }

    /// Park an adopted job's fleet and install its lifecycle state.
    fn install(&self, job: &Arc<Job>, mut fleet: Fleet, state: JobState, slices: u64) {
        fleet.set_threads(job.params().threads);
        if let Some(o) = &self.obs {
            fleet.set_metrics(Some(Arc::clone(&o.fleet)));
        }
        let progress = fleet.progress();
        job.park(fleet);
        if state.is_terminal() {
            *lock(&job.worker) = WorkerState::Finished;
        }
        let run = matches!(state, JobState::Queued | JobState::Running);
        {
            let book = lock(&job.book);
            let mut status = lock(&job.status);
            status.state = if run { JobState::Running } else { state };
            status.progress = Some(progress);
            status.slices = slices;
            status.sweep_rows = book.rows();
        }
        job.status_cv.notify_all();
        if run {
            self.sched.enqueue(Arc::clone(job));
        }
    }

    /// Adopt a job as failed without any simulation state (corrupt or
    /// quarantined state files, unknown manifest kinds).
    pub fn adopt_failed(
        &self,
        name: &str,
        kind_label: &str,
        spec_json: Json,
        error: String,
    ) -> Result<Arc<Job>, String> {
        let job = self.register(
            name,
            static_kind(kind_label),
            spec_json,
            Params::default(),
            WorkerState::Finished,
        )?;
        job.set_state(JobState::Failed, Some(error));
        Ok(job)
    }

    /// Look up a job by name.
    pub fn get(&self, name: &str) -> Option<Arc<Job>> {
        lock(&self.jobs).get(name).cloned()
    }

    /// All jobs, in name order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        lock(&self.jobs).values().cloned().collect()
    }

    /// Drop a terminal job from the table, freeing its name for reuse.
    /// Fails for unknown names and for jobs still running/paused — stop
    /// a job first if you want it gone.
    pub fn forget(&self, name: &str) -> Result<(), String> {
        {
            let mut jobs = lock(&self.jobs);
            let job = jobs
                .get(name)
                .ok_or_else(|| format!("no such job: {name:?}"))?;
            let state = job.snapshot().state;
            if !state.is_terminal() {
                return Err(format!(
                    "job {name:?} is {}; stop it before forgetting",
                    state.as_str()
                ));
            }
            jobs.remove(name);
        }
        if let Some(o) = &self.obs {
            o.logger
                .info("chronosd::jobs", "job forgotten", &[("job", &name)]);
        }
        Ok(())
    }

    /// Stop every job and join the worker pool (daemon shutdown). Any
    /// job still non-terminal after the pool drains (it never got a
    /// final step) is retired as `stopped` directly.
    pub fn stop_all_and_join(&self) {
        for job in self.list() {
            job.request_stop();
        }
        self.sched.shutdown.store(true, Ordering::SeqCst);
        self.sched.cv.notify_all();
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
        lock(&self.sched.queue).clear();
        for job in self.list() {
            if !job.snapshot().state.is_terminal() {
                job.finish_stopped();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_pitfalls::experiments::{
        e16_result_from_rows, e18_result_from_rows, run_e16, run_e18, E16Row, E18Row,
    };
    use chronos_pitfalls::montecarlo::SweepStats;

    fn parse(spec: &str) -> Submission {
        JobSpec::from_json(&Json::parse(spec).expect("spec literal")).expect("spec parses")
    }

    fn small_spec(pause_at_s: Option<u64>) -> Submission {
        let pause = pause_at_s.map_or(String::new(), |p| format!(r#","pause_at_s":{p}"#));
        parse(&format!(
            r#"{{"kind":"e16-fleet","seed":7,"clients":24,"resolvers":2,"poisoned_resolvers":1,"slice_s":500{pause}}}"#
        ))
    }

    fn small_sweep(kind: &str, pause_at_row: Option<usize>) -> Submission {
        let pause = pause_at_row.map_or(String::new(), |r| format!(r#","pause_at_row":{r}"#));
        parse(&format!(
            r#"{{"kind":"{kind}","seed":7,"clients":16,"resolvers":2,"slice_s":2000{pause}}}"#
        ))
    }

    fn wait_for(job: &Job, state: JobState) -> JobSnapshot {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let mut cursor: Option<(u64, JobState)> = None;
        loop {
            let snap = match cursor {
                None => job.snapshot(),
                Some((slices, seen_state)) => job
                    .wait_change(slices, seen_state, Duration::from_secs(5))
                    .unwrap_or_else(|| job.snapshot()),
            };
            if snap.state == state {
                return snap;
            }
            assert!(
                !snap.state.is_terminal(),
                "terminal {:?} (error {:?}) while waiting for {state:?}",
                snap.state,
                snap.error
            );
            assert!(std::time::Instant::now() < deadline, "timed out");
            cursor = Some((snap.slices, snap.state));
        }
    }

    #[test]
    fn fleet_job_runs_to_done_and_matches_batch() {
        let table = JobTable::with_workers(2);
        let job = table.submit("smoke", small_spec(None)).unwrap();
        let done = wait_for(&job, JobState::Done);
        assert!(
            done.slices > 1,
            "expected multiple slices, got {}",
            done.slices
        );
        let daemon_report = job.report(Duration::from_secs(5)).unwrap();
        let batch = Fleet::new(e16_config(7, 24, 2, 1)).run();
        assert_eq!(daemon_report, batch);
        table.stop_all_and_join();
    }

    #[test]
    fn pause_checkpoint_resume_is_byte_identical() {
        let table = JobTable::with_workers(2);
        let job = table.submit("first-leg", small_spec(Some(1_500))).unwrap();
        wait_for(&job, JobState::Paused);
        let bytes = job.checkpoint(Duration::from_secs(5)).unwrap();
        let mid = job.report(Duration::from_secs(5)).unwrap();
        assert!(mid.end < netsim::time::SimTime::from_secs(6_000), "mid-run");
        job.request_stop();

        // The `resume` path: adopt the restored fleet as a queued job.
        let resumed = table
            .adopt_fleet(
                "second-leg",
                "resume",
                resume_spec("resume"),
                Params {
                    threads: 2,
                    slice_s: 500,
                    ..Params::default()
                },
                Fleet::restore(&bytes).unwrap(),
                JobState::Queued,
                0,
            )
            .unwrap();
        assert_eq!(resumed.kind, "resume");
        wait_for(&resumed, JobState::Done);
        let resumed_report = resumed.report(Duration::from_secs(5)).unwrap();
        let batch = Fleet::new(e16_config(7, 24, 2, 1)).run();
        assert_eq!(resumed_report, batch);
        table.stop_all_and_join();
    }

    #[test]
    fn stop_parks_state_and_names_stay_unique() {
        let table = JobTable::with_workers(1);
        let job = table.submit("victim", small_spec(Some(1_000))).unwrap();
        assert!(table.submit("victim", small_spec(None)).is_err());
        wait_for(&job, JobState::Paused);
        job.request_stop();
        let snap = wait_for(&job, JobState::Stopped);
        assert!(snap.progress.is_some());
        // Stopped jobs still expose their parked state.
        assert!(job.report(Duration::from_secs(5)).is_ok());
        table.stop_all_and_join();
    }

    #[test]
    fn bad_specs_and_bad_checkpoints_are_rejected() {
        for bad in [
            r#"{"kind":"nope"}"#,
            r#"{"seed":7}"#,
            r#"{"kind":"e16-fleet","resolvers":2,"poisoned_resolvers":3}"#,
            r#"{"kind":"e17-fleet","resolvers":2,"outage_coverage":3}"#,
            r#"{"kind":"e18-fleet","deployment":1.5}"#,
            r#"{"kind":"e16-sweep","threads":"two"}"#,
            r#"{"kind":"e16-fleet","pause_at_s":-1}"#,
            // The grid grows with `resolvers`, so sweeps bound it.
            r#"{"kind":"e16-sweep","resolvers":1000000}"#,
        ] {
            let spec = Json::parse(bad).expect("spec literal");
            assert!(JobSpec::from_json(&spec).is_err(), "{bad} should fail");
        }
        // A cursor whose current-row checkpoint is junk is refused before
        // its name is registered.
        let table = JobTable::with_workers(1);
        let cursor = SweepCursor {
            configs: (0..=2).map(|k| e16_config(7, 16, 2, k)).collect(),
            done: Vec::new(),
            current: Some(b"junk".to_vec()),
        };
        let err = table
            .adopt_sweep(
                "corrupt",
                "resume-sweep",
                resume_spec("resume-sweep"),
                Params::default(),
                cursor,
                JobState::Queued,
                0,
            )
            .unwrap_err();
        assert!(
            err.contains("checkpoint rejected"),
            "unexpected error: {err}"
        );
        assert!(table.get("corrupt").is_none());
        table.stop_all_and_join();
    }

    #[test]
    fn panicking_job_fails_while_pool_keeps_serving() {
        // One worker: the probe and the fleet share it, so surviving the
        // panic *and* finishing the fleet proves the worker survived.
        let table = JobTable::with_workers(1);
        let probe = table
            .submit(
                "probe",
                parse(r#"{"kind":"panic-probe","message":"deliberate test panic"}"#),
            )
            .unwrap();
        let fleet = table.submit("survivor", small_spec(None)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let snap = probe.snapshot();
            if snap.state == JobState::Failed {
                let error = snap.error.unwrap();
                assert!(
                    error.contains("deliberate test panic"),
                    "panic message missing: {error}"
                );
                break;
            }
            assert!(std::time::Instant::now() < deadline, "probe never failed");
            std::thread::sleep(Duration::from_millis(10));
        }
        let done = wait_for(&fleet, JobState::Done);
        assert!(done.slices > 1);
        let report = fleet.report(Duration::from_secs(5)).unwrap();
        assert_eq!(report, Fleet::new(e16_config(7, 24, 2, 1)).run());
        table.stop_all_and_join();
    }

    #[test]
    fn sweep_job_matches_run_e16_rows_and_series() {
        let table = JobTable::with_workers(2);
        let job = table
            .submit("sweep", small_sweep("e16-sweep", None))
            .unwrap();
        let snap = wait_for(&job, JobState::Done);
        assert_eq!(snap.sweep_rows, Some((3, 3)));
        assert_e16_matches_batch(&job);
        table.stop_all_and_join();
    }

    /// The figure assembled from a done sweep's row reports equals the
    /// batch runner's rows and series.
    fn assert_e16_matches_batch(job: &Job) {
        let rows = job
            .sweep_reports()
            .expect("sweep is done")
            .into_iter()
            .enumerate()
            .map(|(k, report)| E16Row {
                poisoned_resolvers: k,
                poisoned_fraction: k as f64 / 2.0,
                report,
            })
            .collect();
        let result = e16_result_from_rows(2, rows, SweepStats::default());
        let batch = run_e16(7, 16, 2, 1);
        assert_eq!(result.rows, batch.rows);
        assert_eq!(result.series, batch.series);
    }

    #[test]
    fn sweep_pause_cursor_resume_is_byte_identical() {
        let table = JobTable::with_workers(2);
        let job = table
            .submit("sweep-a", small_sweep("e16-sweep", Some(1)))
            .unwrap();
        wait_for(&job, JobState::Paused);
        let snap = job.snapshot();
        assert_eq!(snap.sweep_rows, Some((1, 3)));
        // Row 0 is already servable while the sweep is parked.
        assert!(job.sweep_row_report(0).is_some());
        let cursor = job.sweep_cursor(Duration::from_secs(5)).unwrap();
        job.request_stop();

        // The `resume` path: adopt the decoded cursor as a queued job.
        let resumed = table
            .adopt_sweep(
                "sweep-b",
                "resume-sweep",
                resume_spec("resume-sweep"),
                Params {
                    threads: 2,
                    slice_s: 1_000,
                    ..Params::default()
                },
                SweepCursor::decode(&cursor).unwrap(),
                JobState::Queued,
                0,
            )
            .unwrap();
        assert!(resumed.is_sweep());
        assert_eq!(resumed.snapshot().sweep_rows, Some((1, 3)));
        wait_for(&resumed, JobState::Done);
        assert_e16_matches_batch(&resumed);
        table.stop_all_and_join();
    }

    #[test]
    fn e18_sweep_job_matches_run_e18_rows_and_series() {
        let table = JobTable::with_workers(2);
        let job = table
            .submit("e18-sweep", small_sweep("e18-sweep", None))
            .unwrap();
        let snap = wait_for(&job, JobState::Done);
        let grid = e18_grid(2);
        assert_eq!(snap.sweep_rows, Some((grid.len(), grid.len())));
        let rows = grid
            .into_iter()
            .zip(job.sweep_reports().expect("sweep is done"))
            .map(|((deployment, k), report)| E18Row {
                deployment,
                poisoned_resolvers: k,
                poisoned_fraction: k as f64 / 2.0,
                report,
            })
            .collect();
        let result = e18_result_from_rows(2, rows, SweepStats::default());
        let batch = run_e18(7, 16, 2, 1);
        assert_eq!(result.rows, batch.rows);
        assert_eq!(result.series, batch.series);
        table.stop_all_and_join();
    }

    #[test]
    fn forget_drops_only_terminal_jobs_and_frees_the_name() {
        let table = JobTable::with_workers(1);
        let job = table.submit("keeper", small_spec(Some(1_000))).unwrap();
        wait_for(&job, JobState::Paused);
        // Paused is not terminal: the job is still steerable.
        let err = table.forget("keeper").unwrap_err();
        assert!(err.contains("paused"), "unexpected error: {err}");
        assert!(table.get("keeper").is_some());
        // Unknown names are a clean error, not a panic.
        assert!(table.forget("nobody").is_err());

        job.request_stop();
        wait_for(&job, JobState::Stopped);
        table.forget("keeper").unwrap();
        assert!(table.get("keeper").is_none());
        // The name is immediately reusable.
        let again = table.submit("keeper", small_spec(None)).unwrap();
        wait_for(&again, JobState::Done);
        table.stop_all_and_join();
    }

    #[test]
    fn unpause_reenqueues_a_paused_job() {
        let table = JobTable::with_workers(1);
        let job = table.submit("pausing", small_spec(Some(1_000))).unwrap();
        wait_for(&job, JobState::Paused);
        job.request_unpause();
        wait_for(&job, JobState::Done);
        let report = job.report(Duration::from_secs(5)).unwrap();
        assert_eq!(report, Fleet::new(e16_config(7, 24, 2, 1)).run());
        table.stop_all_and_join();
    }

    #[test]
    fn spec_json_round_trips() {
        // Every wire kind, each with a key it does not read: parsing the
        // normalized spec again is a fixed point, and stray keys are gone.
        for (text, stray) in [
            (
                r#"{"kind":"e16-fleet","seed":3,"clients":24,"resolvers":2,"poisoned_resolvers":1,"threads":2,"slice_s":500,"pause_at_s":9,"junk":true}"#,
                "junk",
            ),
            (r#"{"kind":"e16-fleet","pause_at_row":2}"#, "pause_at_row"),
            (
                r#"{"kind":"e17-fleet","clients":48,"loss":0.2,"outage_coverage":3,"deployment":0.5}"#,
                "deployment",
            ),
            (
                r#"{"kind":"e18-fleet","deployment":0.75,"poisoned_resolvers":2,"threads":0,"loss":0.1}"#,
                "loss",
            ),
            (
                r#"{"kind":"e16-sweep","seed":3,"clients":10,"resolvers":2,"threads":2,"slice_s":100,"pause_at_row":1,"pause_at_s":5}"#,
                "pause_at_s",
            ),
            (
                r#"{"kind":"e18-sweep","resolvers":3,"pause_at_row":null,"poisoned_resolvers":1}"#,
                "poisoned_resolvers",
            ),
            (
                r#"{"kind":"panic-probe","message":"boom","threads":4}"#,
                "threads",
            ),
        ] {
            let first = parse(text);
            let again = JobSpec::from_json(&first.normalized).expect("normalized spec parses");
            assert_eq!(again, first, "{text}");
            assert!(first.normalized.get(stray).is_none(), "{text} kept {stray}");
        }
        // Presets resolve once, with every default filled in.
        let e17 = parse(r#"{"kind":"e17-fleet"}"#);
        assert_eq!(
            e17.spec,
            JobSpec::Fleet(Box::new(e17_config(7, 1_000, 8, 0.05, 0)))
        );
        assert_eq!(e17.params, Params::default());
        assert_eq!(
            e17.normalized.render(),
            r#"{"kind":"e17-fleet","seed":7,"clients":1000,"resolvers":8,"loss":0.05,"outage_coverage":0,"threads":1,"slice_s":60}"#
        );
        let e18 = parse(r#"{"kind":"e18-fleet","threads":3,"pause_at_s":900}"#);
        let mut config = e18_config(7, 1_000, 4, 0.5, 4);
        config.threads = 3;
        assert_eq!(e18.spec, JobSpec::Fleet(Box::new(config)));
        assert_eq!(e18.params.pause_at_s, Some(900));
        // Sweeps resolve to exactly the row configurations `run_e16` and
        // `run_e18` step, with the job's thread count.
        let threaded = |mut config: FleetConfig| {
            config.threads = 2;
            config
        };
        let e16_rows: Vec<FleetConfig> =
            (0..=3).map(|k| threaded(e16_config(5, 40, 3, k))).collect();
        assert_eq!(
            parse(r#"{"kind":"e16-sweep","seed":5,"clients":40,"resolvers":3,"threads":2}"#).spec,
            JobSpec::Sweep(e16_rows)
        );
        let e18_rows: Vec<FleetConfig> = e18_grid(4)
            .into_iter()
            .map(|(deployment, k)| threaded(e18_config(7, 1_000, 4, deployment, k)))
            .collect();
        assert_eq!(
            parse(r#"{"kind":"e18-sweep","threads":2}"#).spec,
            JobSpec::Sweep(e18_rows)
        );
    }
}
