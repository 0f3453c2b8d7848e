//! Shared daemon state: the submission registry and the background
//! sweep runner.
//!
//! A submission is one accepted sweep request. It runs on its own
//! `std::thread`, which internally shards jobs across the engine's
//! panic-isolated worker pool ([`run_sweep_observed`]); the observer
//! publishes [`SweepProgress`] snapshots into the registry under a
//! mutex, where streaming handlers poll them. Results land in the
//! ordinary run directory and (when configured) the persistent result
//! store, so a daemon-run sweep is indistinguishable on disk from a CLI
//! run of the same sweep.

use condspec_engine::{
    default_workers, run_jobs, run_sampled_bench_with, run_sweep_observed, write_sweep_manifest,
    JobSource, ProgramCache, ResultStore, SampledBenchSpec, Sweep, SweepDir, SweepOptions,
    SweepProgress, SweepResults,
};
use condspec_stats::Json;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a submission is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionStatus {
    /// Accepted, thread not yet running the sweep.
    Queued,
    /// The sweep is executing.
    Running,
    /// Finished; all jobs accounted for (some may have failed).
    Done,
    /// The run itself errored (I/O), distinct from failed jobs.
    Error,
}

impl SubmissionStatus {
    /// Stable wire string.
    pub fn key(&self) -> &'static str {
        match self {
            SubmissionStatus::Queued => "queued",
            SubmissionStatus::Running => "running",
            SubmissionStatus::Done => "done",
            SubmissionStatus::Error => "error",
        }
    }
}

/// How a submission runs its benchmark jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubmitMode {
    /// Full detailed simulation of every job (the CLI default).
    #[default]
    Detailed,
    /// SimPoint-style sampling: each benchmark job runs as a functional
    /// count pass plus parallel detailed windows, stitched into a
    /// whole-program estimate. Attack and variant jobs (which have no
    /// sampled form) still run detailed.
    Sampled,
}

impl SubmitMode {
    /// Stable wire string.
    pub fn key(&self) -> &'static str {
        match self {
            SubmitMode::Detailed => "detailed",
            SubmitMode::Sampled => "sampled",
        }
    }

    /// Parses a wire string; the inverse of [`SubmitMode::key`].
    pub fn from_key(key: &str) -> Option<SubmitMode> {
        match key {
            "detailed" => Some(SubmitMode::Detailed),
            "sampled" => Some(SubmitMode::Sampled),
            _ => None,
        }
    }
}

/// One accepted sweep submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Daemon-assigned id (monotonic per process).
    pub id: u64,
    /// The sweep's short name.
    pub sweep: String,
    /// The content-derived sweep id (of the scaled sweep).
    pub sweep_id: String,
    /// How the submission runs its benchmark jobs.
    pub mode: SubmitMode,
    /// Lifecycle state.
    pub status: SubmissionStatus,
    /// Latest progress snapshot.
    pub progress: SweepProgress,
    /// Run error message when `status == Error`.
    pub error: Option<String>,
    /// Rendered report text, available once `Done`.
    pub report: Option<String>,
    /// Per-shard provenance for distributed submissions: completed-job
    /// counts per worker owner id, in first-seen order. Empty for
    /// locally dispatched submissions.
    pub workers: Vec<(String, u64)>,
}

impl Submission {
    /// The submission as a wire JSON object (without the report body).
    /// The NDJSON progress stream emits exactly this object, so remote
    /// shard completions (`remote`, per-owner `workers` counts) are
    /// visible with the same done/simulated/store_hits accounting as a
    /// local run.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::from(self.id)),
            ("sweep", Json::from(self.sweep.as_str())),
            ("sweep_id", Json::from(self.sweep_id.as_str())),
            ("mode", Json::from(self.mode.key())),
            ("status", Json::from(self.status.key())),
            ("done", Json::from(self.progress.done as u64)),
            ("total", Json::from(self.progress.total as u64)),
            ("simulated", Json::from(self.progress.simulated as u64)),
            ("store_hits", Json::from(self.progress.store_hits as u64)),
            ("remote", Json::from(self.progress.remote as u64)),
            ("failed", Json::from(self.progress.failed as u64)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::from(e.as_str()),
                    None => Json::Null,
                },
            ),
        ];
        if !self.workers.is_empty() {
            let per_worker = self
                .workers
                .iter()
                .map(|(owner, count)| {
                    Json::object(vec![
                        ("owner", Json::from(owner.as_str())),
                        ("simulated", Json::from(*count)),
                    ])
                })
                .collect::<Vec<_>>();
            fields.push(("workers", Json::Array(per_worker)));
        }
        Json::object(fields)
    }
}

/// State shared by every connection handler and submission thread.
pub struct ServerState {
    /// Worker threads per sweep (0 = engine default).
    pub workers: usize,
    /// Artifact root for daemon-run sweeps.
    pub runs_root: PathBuf,
    /// Persistent store root; `None` disables the store.
    pub store_root: Option<PathBuf>,
    /// Accepted submissions, newest last.
    submissions: Mutex<Vec<Submission>>,
    next_id: AtomicU64,
    /// Total HTTP requests handled (for `/api/metrics`).
    pub requests: AtomicU64,
    /// Connections that failed to accept, sent a malformed request, or
    /// broke off mid-exchange (for `/api/metrics`).
    pub connection_errors: AtomicU64,
    /// Store hits across every finished submission (daemon lifetime).
    pub store_hits_total: AtomicU64,
    /// Store entries written ([`ResultStore::inserts`]) across every
    /// finished submission; a failed write is not an insert.
    pub store_inserts_total: AtomicU64,
    /// Failed store writes ([`ResultStore::io_errors`]) summed over every
    /// store the daemon opened: submissions, `/api/jobs` runs and
    /// distributed results.
    pub(crate) store_io_errors_total: AtomicU64,
    /// Set by `POST /api/shutdown`; the accept loop exits on the next
    /// connection.
    pub shutdown: AtomicBool,
    /// When the state was created; `/healthz` reports uptime from here.
    pub started: std::time::Instant,
    /// Distributed submissions' work queues (pull-model work API).
    work: Mutex<Vec<DistributedRun>>,
    /// Every worker that has ever claimed or heartbeat, first-seen
    /// order.
    registry: Mutex<Vec<WorkerEntry>>,
}

/// One remote worker known to the daemon (`/healthz` reports these).
#[derive(Debug, Clone)]
pub struct WorkerEntry {
    /// The worker's self-chosen owner id.
    pub owner: String,
    /// Last claim/result/heartbeat time.
    pub last_seen: Instant,
    /// Jobs this worker has completed (daemon lifetime).
    pub completed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ItemState {
    Pending,
    Claimed { owner: String, since: Instant },
    Done,
}

#[derive(Debug, Clone)]
struct WorkItem {
    state: ItemState,
    /// Owner that produced the result (or the store entry's recorded
    /// inserter for jobs resolved at submit time).
    owner: Option<String>,
    /// Resolved from the persistent store at submit time, not simulated.
    via_store: bool,
    failed: bool,
}

/// One distributed submission's work queue: the sweep (scaled as
/// submitted), one item per job, and the artifacts collected so far.
/// Jobs already in the store are resolved at submit time; the rest are
/// handed out over `POST /api/work/claim` and reported back over
/// `POST /api/work/result`.
struct DistributedRun {
    submission: u64,
    sweep: Sweep,
    dir: SweepDir,
    /// A claimed item not reported or heartbeat within this window is
    /// requeued (requeue-on-disconnect).
    claim_timeout: Duration,
    items: Vec<WorkItem>,
    results: SweepResults,
    store: Option<ResultStore>,
}

impl DistributedRun {
    fn complete(&self) -> bool {
        self.items.iter().all(|i| i.state == ItemState::Done)
    }
}

impl ServerState {
    /// Fresh state with no submissions.
    pub fn new(workers: usize, runs_root: PathBuf, store_root: Option<PathBuf>) -> ServerState {
        ServerState {
            workers,
            runs_root,
            store_root,
            submissions: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            connection_errors: AtomicU64::new(0),
            store_hits_total: AtomicU64::new(0),
            store_inserts_total: AtomicU64::new(0),
            store_io_errors_total: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: std::time::Instant::now(),
            work: Mutex::new(Vec::new()),
            registry: Mutex::new(Vec::new()),
        }
    }

    /// Adds `store`'s counted I/O failures to the daemon-lifetime total.
    pub(crate) fn count_store_io_errors(&self, store: Option<&ResultStore>) {
        if let Some(store) = store {
            self.store_io_errors_total
                .fetch_add(store.io_errors(), Ordering::Relaxed);
        }
    }

    /// Adds a finished submission's store hits and landed inserts to the
    /// daemon-lifetime totals.
    fn count_store_traffic(&self, hits: u64, inserts: u64) {
        self.store_hits_total.fetch_add(hits, Ordering::Relaxed);
        self.store_inserts_total
            .fetch_add(inserts, Ordering::Relaxed);
    }

    /// Submissions still queued or running (the `/healthz` "jobs in
    /// flight" figure).
    pub fn in_flight(&self) -> usize {
        self.submissions
            .lock()
            .expect("registry")
            .iter()
            .filter(|s| {
                matches!(
                    s.status,
                    SubmissionStatus::Queued | SubmissionStatus::Running
                )
            })
            .count()
    }

    /// The sweep options a daemon submission runs with. `resume` is
    /// deliberately off: repeat submissions must demonstrate their
    /// cache hits through the *store* (observable, counted), not
    /// through silent directory resume.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            workers: self.workers,
            root: self.runs_root.clone(),
            store: self.store_root.clone(),
            quiet: true,
            ..SweepOptions::default()
        }
    }

    /// Registers a new submission and starts its sweep thread. `sweep`
    /// carries its own scale ([`Sweep::scaled`]). Returns
    /// `(submission id, sweep id)`.
    pub fn submit(self: &Arc<Self>, sweep: Sweep, mode: SubmitMode) -> (u64, String) {
        let opts = self.sweep_options();
        let sweep_id = sweep.sweep_id();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.submissions.lock().expect("registry").push(Submission {
            id,
            sweep: sweep.name.to_string(),
            sweep_id: sweep_id.clone(),
            mode,
            status: SubmissionStatus::Queued,
            progress: SweepProgress {
                done: 0,
                total: sweep.jobs.len(),
                simulated: 0,
                store_hits: 0,
                remote: 0,
                failed: 0,
            },
            error: None,
            report: None,
            workers: Vec::new(),
        });

        let state = Arc::clone(self);
        std::thread::spawn(move || {
            state.update(id, |s| s.status = SubmissionStatus::Running);
            match mode {
                SubmitMode::Detailed => {
                    let outcome = run_sweep_observed(&sweep, &opts, |progress| {
                        let progress = *progress;
                        state.update(id, move |s| s.progress = progress);
                    });
                    match outcome {
                        Ok(outcome) => {
                            state
                                .store_io_errors_total
                                .fetch_add(outcome.store_io_errors, Ordering::Relaxed);
                            state.count_store_traffic(
                                outcome.store_hits as u64,
                                outcome.store_inserts,
                            );
                            let report = sweep.render(&outcome.results);
                            state.update(id, move |s| {
                                s.status = SubmissionStatus::Done;
                                s.report = Some(report);
                            });
                        }
                        Err(e) => {
                            let message = e.to_string();
                            state.update(id, move |s| {
                                s.status = SubmissionStatus::Error;
                                s.error = Some(message);
                            });
                        }
                    }
                }
                SubmitMode::Sampled => {
                    let workers = if state.workers == 0 {
                        default_workers()
                    } else {
                        state.workers
                    };
                    let store = state.store_root.as_ref().map(ResultStore::open);
                    let (results, hits) =
                        run_sampled_submission(&sweep, workers, store.as_ref(), |p| {
                            let p = *p;
                            state.update(id, move |s| s.progress = p);
                        });
                    state.count_store_io_errors(store.as_ref());
                    state.count_store_traffic(hits, store.as_ref().map_or(0, ResultStore::inserts));
                    let report = sweep.render(&results);
                    state.update(id, move |s| {
                        s.status = SubmissionStatus::Done;
                        s.report = Some(report);
                    });
                }
            }
        });
        (id, sweep_id)
    }

    /// Applies `f` to the submission with `id`, if it exists.
    fn update(&self, id: u64, f: impl FnOnce(&mut Submission)) {
        let mut registry = self.submissions.lock().expect("registry");
        if let Some(s) = registry.iter_mut().find(|s| s.id == id) {
            f(s);
        }
    }

    /// A snapshot of one submission.
    pub fn submission(&self, id: u64) -> Option<Submission> {
        self.submissions
            .lock()
            .expect("registry")
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// Snapshots of every submission, oldest first.
    pub fn submissions(&self) -> Vec<Submission> {
        self.submissions.lock().expect("registry").clone()
    }

    /// Default requeue window for distributed submissions that do not
    /// pick one.
    pub const DEFAULT_CLAIM_TIMEOUT: Duration = Duration::from_secs(60);

    /// Registers a distributed submission: jobs already in the store
    /// resolve immediately (with their recorded inserting shard as
    /// provenance); the rest form a pull-model work queue drained by
    /// remote workers over `POST /api/work/claim` / `/api/work/result`.
    /// No local simulation happens at all. `sweep` carries its own scale
    /// ([`Sweep::scaled`]), which the work descriptors hand on. Returns
    /// `(submission id, sweep id)`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the run directory or writing an artifact
    /// or manifest.
    pub fn submit_distributed(
        &self,
        sweep: Sweep,
        claim_timeout: Option<Duration>,
    ) -> io::Result<(u64, String)> {
        let sweep_id = sweep.sweep_id();
        let dir = SweepDir::create(&self.runs_root, &sweep_id)?;
        let store = self.store_root.as_ref().map(ResultStore::open);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut items = Vec::with_capacity(sweep.jobs.len());
        let mut results = SweepResults::new();
        let mut write_error: Option<io::Error> = None;
        for job in &sweep.jobs {
            let resolved = store
                .as_ref()
                .and_then(|s| s.load_with_origin(&job.store_key()));
            match resolved {
                Some((doc, origin)) => {
                    if let Err(e) = dir.write(&job.hash_hex(), &doc) {
                        write_error.get_or_insert(e);
                    }
                    results.insert(job.hash_hex(), doc);
                    items.push(WorkItem {
                        state: ItemState::Done,
                        owner: origin,
                        via_store: true,
                        failed: false,
                    });
                }
                None => items.push(WorkItem {
                    state: ItemState::Pending,
                    owner: None,
                    via_store: false,
                    failed: false,
                }),
            }
        }
        if let Some(e) = write_error {
            return Err(e);
        }
        let hits = items.iter().filter(|i| i.via_store).count();
        self.submissions.lock().expect("registry").push(Submission {
            id,
            sweep: sweep.name.to_string(),
            sweep_id: sweep_id.clone(),
            mode: SubmitMode::Detailed,
            status: SubmissionStatus::Running,
            progress: SweepProgress {
                done: hits,
                total: sweep.jobs.len(),
                simulated: 0,
                store_hits: hits,
                remote: 0,
                failed: 0,
            },
            error: None,
            report: None,
            workers: Vec::new(),
        });
        let run = DistributedRun {
            submission: id,
            sweep,
            dir,
            claim_timeout: claim_timeout.unwrap_or(Self::DEFAULT_CLAIM_TIMEOUT),
            items,
            results,
            store,
        };
        if run.complete() {
            // A fully warm store: nothing to hand out.
            self.finalize_distributed(&run)?;
        }
        self.work.lock().expect("work queue").push(run);
        Ok((id, sweep_id))
    }

    /// Records that `owner` is alive, adding `completed_delta` to its
    /// completed-job count.
    fn touch_worker(&self, owner: &str, completed_delta: u64) {
        let mut registry = self.registry.lock().expect("worker registry");
        match registry.iter_mut().find(|w| w.owner == owner) {
            Some(w) => {
                w.last_seen = Instant::now();
                w.completed += completed_delta;
            }
            None => registry.push(WorkerEntry {
                owner: owner.to_string(),
                last_seen: Instant::now(),
                completed: completed_delta,
            }),
        }
    }

    /// `POST /api/work/claim`: hands `owner` the next pending job of
    /// the oldest incomplete distributed submission. Expired claims
    /// (no result or heartbeat within the run's claim timeout) are
    /// requeued first, so a disconnected worker's jobs are re-issued.
    /// With nothing to hand out, responds `{"idle": true, "active": N}`.
    pub fn claim_work(&self, owner: &str) -> Json {
        self.touch_worker(owner, 0);
        let mut work = self.work.lock().expect("work queue");
        let mut active = 0usize;
        for run in work.iter_mut() {
            if run.complete() {
                continue;
            }
            active += 1;
            for item in run.items.iter_mut() {
                if let ItemState::Claimed { since, .. } = &item.state {
                    if since.elapsed() > run.claim_timeout {
                        item.state = ItemState::Pending;
                    }
                }
            }
            let Some(index) = run.items.iter().position(|i| i.state == ItemState::Pending) else {
                continue;
            };
            run.items[index].state = ItemState::Claimed {
                owner: owner.to_string(),
                since: Instant::now(),
            };
            let job = &run.sweep.jobs[index];
            let mut fields = vec![
                ("submission", Json::from(run.submission)),
                ("index", Json::from(index as u64)),
                ("sweep", Json::from(run.sweep.name)),
                ("key", Json::from(job.store_key())),
                ("label", Json::from(job.label())),
                (
                    "claim_timeout_ms",
                    Json::from(run.claim_timeout.as_millis() as u64),
                ),
            ];
            let (iters, warmup) = run.sweep.scale();
            if let Some(iters) = iters {
                fields.push(("iters", Json::from(iters)));
            }
            if let Some(warmup) = warmup {
                fields.push(("warmup", Json::from(warmup)));
            }
            return Json::object(fields);
        }
        Json::object(vec![
            ("idle", Json::from(true)),
            ("active", Json::from(active as u64)),
        ])
    }

    /// `POST /api/work/result`: accepts `owner`'s result for one
    /// claimed job. First result wins; a duplicate (e.g. from a worker
    /// whose claim expired and was re-issued) is acknowledged without
    /// recounting. Finishing the last item finalizes the submission
    /// (manifest with per-shard provenance, rendered report).
    ///
    /// # Errors
    ///
    /// A client-error message for an unknown submission or
    /// out-of-range index.
    pub fn work_result(
        &self,
        owner: &str,
        submission: u64,
        index: usize,
        outcome: Result<Json, String>,
    ) -> Result<Json, String> {
        let mut work = self.work.lock().expect("work queue");
        let Some(run) = work.iter_mut().find(|r| r.submission == submission) else {
            return Err(format!("unknown submission {submission}"));
        };
        if index >= run.items.len() {
            return Err(format!(
                "index {index} out of range for submission {submission} ({} jobs)",
                run.items.len()
            ));
        }
        if run.items[index].state == ItemState::Done {
            self.touch_worker(owner, 0);
            return Ok(Json::object(vec![
                ("ok", Json::from(true)),
                ("duplicate", Json::from(true)),
            ]));
        }
        let job = run.sweep.jobs[index].clone();
        run.items[index].state = ItemState::Done;
        run.items[index].owner = Some(owner.to_string());
        match outcome {
            Ok(doc) => {
                if let Some(s) = &run.store {
                    // Best-effort (a failure is counted in the daemon's
                    // store I/O errors), with the reporting shard
                    // recorded as the entry's owner — local workers
                    // sharing the store see this job as already complete.
                    let inserted = s.insert_claimed(
                        &job.store_key(),
                        &job.hash_hex(),
                        &job.label(),
                        condspec_engine::hash::code_fingerprint(),
                        &doc,
                        owner,
                    );
                    if inserted.is_err() {
                        self.store_io_errors_total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Err(e) = run.dir.write(&job.hash_hex(), &doc) {
                    return Err(format!("artifact write failed: {e}"));
                }
                run.results.insert(job.hash_hex(), doc);
            }
            Err(_) => run.items[index].failed = true,
        }
        self.touch_worker(owner, 1);

        // Recount from the items so the submission's done/simulated/
        // store_hits/failed are exact no matter how results interleave.
        let done = run
            .items
            .iter()
            .filter(|i| i.state == ItemState::Done)
            .count();
        let store_hits = run.items.iter().filter(|i| i.via_store).count();
        let failed = run.items.iter().filter(|i| i.failed).count();
        let simulated = done - store_hits - failed;
        let progress = SweepProgress {
            done,
            total: run.items.len(),
            simulated,
            store_hits,
            // Every simulation of a distributed submission happens on a
            // remote shard.
            remote: simulated,
            failed,
        };
        let worker_owner = owner.to_string();
        self.update(submission, move |s| {
            s.progress = progress;
            match s.workers.iter_mut().find(|(o, _)| *o == worker_owner) {
                Some((_, count)) => *count += 1,
                None => s.workers.push((worker_owner, 1)),
            }
        });
        if run.complete() {
            if let Err(e) = self.finalize_distributed(run) {
                let message = e.to_string();
                self.update(submission, move |s| {
                    s.status = SubmissionStatus::Error;
                    s.error = Some(message);
                });
            }
        }
        Ok(Json::object(vec![
            ("ok", Json::from(true)),
            ("remaining", Json::from((run.items.len() - done) as u64)),
        ]))
    }

    /// `POST /api/work/heartbeat`: renews `owner`'s liveness, and — when
    /// a claimed `(submission, index)` is named — its claim window, so a
    /// slow simulation is not requeued from under a live worker.
    pub fn work_heartbeat(
        &self,
        owner: &str,
        submission: Option<u64>,
        index: Option<usize>,
    ) -> Json {
        self.touch_worker(owner, 0);
        let mut held = false;
        if let (Some(submission), Some(index)) = (submission, index) {
            let mut work = self.work.lock().expect("work queue");
            if let Some(run) = work.iter_mut().find(|r| r.submission == submission) {
                if let Some(item) = run.items.get_mut(index) {
                    if let ItemState::Claimed {
                        owner: holder,
                        since,
                    } = &mut item.state
                    {
                        if holder == owner {
                            *since = Instant::now();
                            held = true;
                        }
                    }
                }
            }
        }
        Json::object(vec![("ok", Json::from(true)), ("held", Json::from(held))])
    }

    /// Writes the manifest (per-shard provenance included), renders the
    /// report, and marks the submission done.
    fn finalize_distributed(&self, run: &DistributedRun) -> io::Result<()> {
        let provenance = run.items.iter().map(|item| {
            let source = if item.via_store {
                JobSource::Store
            } else {
                JobSource::Simulated
            };
            (source, item.owner.clone())
        });
        write_sweep_manifest(&run.dir, &run.sweep, &run.results, provenance)?;
        let hits = run.items.iter().filter(|i| i.via_store).count() as u64;
        self.count_store_traffic(hits, run.store.as_ref().map_or(0, ResultStore::inserts));
        let report = run.sweep.render(&run.results);
        self.update(run.submission, move |s| {
            s.status = SubmissionStatus::Done;
            s.report = Some(report);
        });
        Ok(())
    }

    /// Every known worker, first-seen order (for `/healthz`).
    pub fn workers_snapshot(&self) -> Vec<WorkerEntry> {
        self.registry.lock().expect("worker registry").clone()
    }

    /// Work-API claims currently held by workers (for `/healthz`).
    pub fn work_claims_in_flight(&self) -> usize {
        self.work
            .lock()
            .expect("work queue")
            .iter()
            .flat_map(|run| run.items.iter())
            .filter(|i| matches!(i.state, ItemState::Claimed { .. }))
            .count()
    }
}

/// Runs a sampled-mode submission: every benchmark job becomes a
/// functional count pass plus parallel detailed windows
/// (`run_sampled_bench_with`; one program cache for the whole
/// submission, so a benchmark under several defenses is built and
/// counted once), whose stitched whole-program report lands
/// under the job's hash so the sweep's ordinary renderer draws the
/// table; attack and variant jobs run detailed through the scheduler.
/// Returns the collected results plus the submission's window-level
/// store hit count (a sampled job fans into many window jobs, each
/// individually store-cached).
fn run_sampled_submission(
    sweep: &Sweep,
    workers: usize,
    store: Option<&ResultStore>,
    mut on_progress: impl FnMut(&SweepProgress),
) -> (SweepResults, u64) {
    let programs = Arc::new(ProgramCache::new());
    let mut results = SweepResults::new();
    let mut window_hits = 0u64;
    let mut progress = SweepProgress {
        done: 0,
        total: sweep.jobs.len(),
        simulated: 0,
        store_hits: 0,
        remote: 0,
        failed: 0,
    };
    for job in &sweep.jobs {
        match SampledBenchSpec::from_bench_job(job) {
            Some(spec) => match run_sampled_bench_with(&spec, workers, &programs, store) {
                Ok(outcome) => {
                    window_hits += outcome.store_hits as u64;
                    if outcome.executed == 0 && outcome.store_hits > 0 {
                        progress.store_hits += 1;
                    } else {
                        progress.simulated += 1;
                    }
                    results.insert(
                        job.hash_hex(),
                        Json::object(vec![
                            ("job", Json::from(job.hash_hex())),
                            ("key", Json::from(job.canonical_key())),
                            ("mode", Json::from("sampled")),
                            ("total_insts", Json::from(outcome.total_insts)),
                            ("report", outcome.report.to_json()),
                        ]),
                    );
                }
                Err(_) => progress.failed += 1,
            },
            None => {
                let store_mode = store.map(|s| (s, None));
                let mut run = run_jobs(
                    std::slice::from_ref(job),
                    1,
                    &programs,
                    store_mode,
                    |_, _| {},
                );
                let done = run.remove(0);
                match done.outcome {
                    Ok(doc) => {
                        match done.source {
                            JobSource::Store => progress.store_hits += 1,
                            _ => progress.simulated += 1,
                        }
                        results.insert(job.hash_hex(), doc);
                    }
                    Err(_) => progress.failed += 1,
                }
            }
        }
        progress.done += 1;
        on_progress(&progress);
    }
    (results, window_hits)
}
