//! The worker pool: deterministic-result parallel job execution on
//! `std::thread` with per-job panic isolation. [`run_jobs`] is the one
//! entry point and drives one worker loop for every caller.
//!
//! Workers pull jobs from a shared cursor (cheap work stealing: whoever
//! is free claims the next index with one `fetch_add`, no lock, no
//! queue to build), run each inside `catch_unwind`, and stream
//! `(index, JobDone)` pairs back over an `mpsc` channel. The caller
//! reassembles results *by index*, so the output order — and therefore
//! everything derived from it — is independent of how many workers ran
//! or how the OS interleaved them. Only scheduling varies with
//! `workers`; results never do.
//!
//! The `store` argument picks how much of the persistent
//! [`ResultStore`] the loop uses:
//!
//! * none — every job is simulated;
//! * a store — each worker looks the job up before simulating (a valid
//!   entry is returned as-is, tagged [`JobSource::Store`]) and inserts
//!   every fresh success afterwards, best-effort, since a read-only or
//!   full store must never fail a sweep;
//! * a store and a [`ClaimOptions`] — each worker also takes the job's
//!   lease before simulating, so pools in other processes sharing the
//!   store root complete the same job list exactly once.
//!
//! Store entries hold exactly the artifact the job would have produced,
//! so a store hit is byte-identical to a simulation.

use crate::artifact::JobSource;
use crate::cache::{ProgramCache, WorkerContext};
use crate::job::JobSpec;
use condspec_stats::Json;
use condspec_store::{ClaimStatus, ResultStore};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The outcome of one job: its artifact document, or the panic message
/// of a failed run.
pub type JobResult = Result<Json, String>;

/// Wall-clock execution telemetry for one job. Never written into job
/// artifacts or the manifest (those must stay deterministic); the
/// engine's opt-in `telemetry.json` sidecar is its only persistent home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Index of the worker thread that ran the job.
    pub worker: usize,
    /// Milliseconds between pool start and this job being claimed — how
    /// long the job sat in the queue behind earlier claims.
    pub queue_wait_ms: u64,
    /// Milliseconds the job's simulation (including a panicking one)
    /// actually ran.
    pub wall_ms: u64,
}

/// The number of workers to use when the caller does not say:
/// `std::thread::available_parallelism`, or 1 if unknown.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// How a claim-mode pool identifies itself and judges other owners.
/// Its heartbeat and busy-job poll intervals both derive from
/// `steal_after`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimOptions {
    /// This process's owner id, recorded in every lease and insert it
    /// makes (per-shard provenance).
    pub owner: String,
    /// Time without a heartbeat after which another owner's lease is
    /// presumed orphaned and stolen.
    pub steal_after: Duration,
}

impl ClaimOptions {
    /// Options for `owner` with the default steal timeout.
    pub fn new(owner: impl Into<String>) -> ClaimOptions {
        ClaimOptions {
            owner: owner.into(),
            steal_after: condspec_store::DEFAULT_STEAL_TIMEOUT,
        }
    }

    /// The owner id used when the caller does not pick one:
    /// `shard-<pid>`, unique per process on one host.
    pub fn default_owner() -> String {
        format!("shard-{}", std::process::id())
    }
}

/// One job's outcome from [`run_jobs`].
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The artifact document, or the failure message.
    pub outcome: JobResult,
    /// Wall-clock telemetry (for store-resolved jobs, the time spent
    /// looking up — and under a claim, waiting — not simulating).
    pub timing: JobTiming,
    /// [`JobSource::Store`] for a store hit, [`JobSource::Simulated`]
    /// when this pool ran the job (including failures, which are never
    /// stored).
    pub source: JobSource,
    /// Under a claim, the owner id that simulated the job: ours for
    /// local simulations, the inserting shard's for store hits (absent
    /// for entries written outside the claim protocol). Always `None`
    /// without a claim.
    pub origin: Option<String>,
    /// True when a store hit under a claim was inserted by a different
    /// owner than this pool: another shard (or an earlier run under
    /// another owner id) did the simulating.
    pub remote: bool,
}

/// Runs `jobs` on `workers` threads and returns one [`JobDone`] per
/// job, in input order. `on_done(index, done)` fires on the calling
/// thread as each job finishes (completion order), for progress
/// reporting and incremental artifact writes.
///
/// Every worker fetches benchmark programs from the shared `programs`
/// cache (the caller reads its build/hit counters after the pool
/// drains) and keeps its simulator resident between jobs, reset in
/// place when the next job's configuration matches. A panicking job is
/// caught and converted to `Err(message)`; it poisons only its worker's
/// resident simulator, which is discarded before that worker takes its
/// next job.
///
/// `store` is `None` to simulate every job, `Some((store, None))` to
/// consult and fill the persistent result store (exactly one store
/// load per job), or `Some((store, Some(claim)))` for claim-based
/// draining. Under a claim any number of pools — in other processes or
/// on other hosts sharing the store root — run this over the same job
/// list and cooperatively complete it exactly once:
///
/// 1. a store hit resolves the job immediately;
/// 2. otherwise the worker claims the job's lease (stealing a stale
///    one), re-checks the store, simulates, and inserts with its owner
///    id, which releases the lease; a failed job releases it directly;
/// 3. a job leased by a live owner is deferred, then polled until its
///    result appears in the store (remote completion) or its lease
///    goes stale and is stolen (remote death).
///
/// Only claim mode starts the background thread that heartbeats every
/// lease this pool holds at a quarter of `claim.steal_after`, so long
/// simulations are never mistaken for dead owners. Results are the same
/// in every mode; only the `timing`/`source`/`origin`/`remote`
/// annotations vary with store warmth and scheduling.
pub fn run_jobs(
    jobs: &[JobSpec],
    workers: usize,
    programs: &Arc<ProgramCache>,
    store: Option<(&ResultStore, Option<&ClaimOptions>)>,
    mut on_done: impl FnMut(usize, &JobDone),
) -> Vec<JobDone> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let claim = store.and_then(|(_, claim)| claim);
    let store = store.map(|(store, _)| store);
    let cursor = AtomicUsize::new(0);
    // Jobs whose lease a live owner holds; only claim mode fills it.
    let deferred: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    // The lease each worker is simulating under, for the heartbeat.
    let held: Vec<Mutex<Option<String>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, JobDone)>();
    let started = Instant::now();

    let mut results: Vec<Option<JobDone>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        if let (Some(store), Some(claim)) = (store, claim) {
            let (held, stop) = (&held, &stop);
            scope.spawn(move || heartbeat(store, claim, held, stop));
        }
        for (worker, held) in held.iter().enumerate() {
            let tx = tx.clone();
            let (cursor, deferred) = (&cursor, &deferred);
            let mut ctx = WorkerContext::new(Arc::clone(programs));
            scope.spawn(move || {
                // The cursor first, then the deferred jobs until each
                // resolves; `true` marks a re-check.
                let next = || match cursor.fetch_add(1, Ordering::Relaxed) {
                    index if index < jobs.len() => Some((index, false)),
                    _ => deferred
                        .lock()
                        .expect("deferred queue")
                        .pop_front()
                        .map(|index| (index, true)),
                };
                while let Some((index, recheck)) = next() {
                    let queue_wait_ms = started.elapsed().as_millis() as u64;
                    let job_started = Instant::now();
                    let Some((outcome, source, origin)) =
                        resolve(&jobs[index], store, claim, held, &mut ctx)
                    else {
                        deferred.lock().expect("deferred queue").push_back(index);
                        if let (true, Some(claim)) = (recheck, claim) {
                            // Only a live owner can finish this job:
                            // back off before the next re-check.
                            let poll = (claim.steal_after / 4)
                                .clamp(Duration::from_millis(10), Duration::from_millis(50));
                            std::thread::sleep(poll);
                        }
                        continue;
                    };
                    let remote = source == JobSource::Store
                        && origin
                            .as_deref()
                            .zip(claim)
                            .is_some_and(|(origin, claim)| origin != claim.owner);
                    let done = JobDone {
                        outcome,
                        timing: JobTiming {
                            worker,
                            queue_wait_ms,
                            wall_ms: job_started.elapsed().as_millis() as u64,
                        },
                        source,
                        origin,
                        remote,
                    };
                    if tx.send((index, done)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (index, done) in rx {
            on_done(index, &done);
            results[index] = Some(done);
        }
        stop.store(true, Ordering::Relaxed);
    });
    results
        .into_iter()
        .map(|r| r.expect("every job reports exactly once"))
        .collect()
}

/// Resolves one job on a worker: a store hit or a fresh simulation,
/// with its origin under a claim. `None` means a live owner holds the
/// job's lease and the job must be deferred (claim mode only).
fn resolve(
    spec: &JobSpec,
    store: Option<&ResultStore>,
    claim: Option<&ClaimOptions>,
    held: &Mutex<Option<String>>,
    ctx: &mut WorkerContext,
) -> Option<(JobResult, JobSource, Option<String>)> {
    let keyed = store.map(|store| (store, spec.store_key()));
    if let Some((store, key)) = &keyed {
        if let Some((doc, origin)) = store.load_with_origin(key) {
            return Some((Ok(doc), JobSource::Store, claim.and(origin)));
        }
        if let Some(claim) = claim {
            // A store root we cannot even write leases to (`Err`) falls
            // through and simulates unclaimed rather than wedge the
            // sweep: inserts are idempotent.
            if let Ok(ClaimStatus::Busy { .. }) =
                store.try_claim(key, &claim.owner, claim.steal_after)
            {
                return None;
            }
            // The previous holder may have inserted just before
            // releasing; re-check now that we hold the lease.
            if let Some((doc, origin)) = store.load_with_origin(key) {
                let _ = store.release(key, &claim.owner);
                return Some((Ok(doc), JobSource::Store, origin));
            }
            *held.lock().expect("held slot") = Some(key.clone());
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| spec.execute_with(ctx))).map_err(panic_message);
    if claim.is_some() {
        *held.lock().expect("held slot") = None;
    }
    match (&outcome, &keyed) {
        (Ok(doc), Some((store, key))) => {
            // Best-effort: a store that cannot be written to (read-only,
            // disk full) must not fail the job it just ran. The store
            // counts the failure in its `io_errors`.
            let (hash, label) = (spec.hash_hex(), spec.label());
            let fingerprint = crate::hash::code_fingerprint();
            let _ = match claim {
                Some(claim) => {
                    store.insert_claimed(key, &hash, &label, fingerprint, doc, &claim.owner)
                }
                None => store.insert(key, &hash, &label, fingerprint, doc),
            };
        }
        (Err(_), keyed) => {
            // The simulator may have unwound mid-cycle; never reuse it
            // for the next job.
            ctx.discard_simulator();
            if let (Some((store, key)), Some(claim)) = (keyed, claim) {
                let _ = store.release(key, &claim.owner);
            }
        }
        _ => {}
    }
    Some((
        outcome,
        JobSource::Simulated,
        claim.map(|c| c.owner.clone()),
    ))
}

/// Renews every lease a worker currently holds, every quarter of the
/// steal timeout, until `stop`: a long simulation is never stolen from
/// a live pool.
fn heartbeat(
    store: &ResultStore,
    claim: &ClaimOptions,
    held: &[Mutex<Option<String>>],
    stop: &AtomicBool,
) {
    let beat = (claim.steal_after / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
    let tick = Duration::from_millis(10);
    let mut since_beat = Duration::ZERO;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        since_beat += tick;
        if since_beat < beat {
            continue;
        }
        since_beat = Duration::ZERO;
        for slot in held {
            let key = slot.lock().expect("heartbeat slot").clone();
            if let Some(key) = key {
                let _ = store.heartbeat(&key, &claim.owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec::DefenseConfig;
    use std::path::PathBuf;

    fn tiny_job(benchmark: &'static str) -> JobSpec {
        JobSpec::bench(benchmark, DefenseConfig::Origin).scaled(Some(2), Some(1))
    }

    /// A job that cannot halt in its 10-cycle budget: `run_to_halt`
    /// panics.
    fn panicking_job() -> JobSpec {
        let mut bad = tiny_job("gcc");
        bad.budget = 10;
        bad
    }

    /// An empty store under the temp directory; the caller removes the
    /// returned root.
    fn scratch_store(tag: &str) -> (PathBuf, ResultStore) {
        let root =
            std::env::temp_dir().join(format!("condspec-scheduler-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        (root, store)
    }

    /// `run_jobs` with a fresh program cache and no store, reduced to
    /// the outcomes.
    fn outcomes(jobs: &[JobSpec], workers: usize) -> Vec<JobResult> {
        run_jobs(
            jobs,
            workers,
            &Arc::new(ProgramCache::new()),
            None,
            |_, _| {},
        )
        .into_iter()
        .map(|done| done.outcome)
        .collect()
    }

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let jobs = vec![tiny_job("gcc"), tiny_job("mcf"), tiny_job("lbm")];
        let reference: Vec<String> = outcomes(&jobs, 1)
            .into_iter()
            .map(|r| r.expect("tiny jobs halt").render())
            .collect();
        for workers in [2, 8] {
            let got: Vec<String> = outcomes(&jobs, workers)
                .into_iter()
                .map(|r| r.expect("tiny jobs halt").render())
                .collect();
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let (root, store) = scratch_store("isolated");
        let claim = ClaimOptions::new("isolated");
        let jobs = vec![tiny_job("mcf"), panicking_job(), tiny_job("lbm")];
        for mode in [None, Some((&store, Some(&claim)))] {
            let mut done = 0;
            let programs = Arc::new(ProgramCache::new());
            let results = run_jobs(&jobs, 2, &programs, mode, |_, _| done += 1);
            assert_eq!(done, 3);
            assert!(results[0].outcome.is_ok());
            assert!(results[1]
                .outcome
                .as_ref()
                .is_err_and(|e| e.contains("did not halt")));
            assert!(results[2].outcome.is_ok());
        }
        // Under the claim: both successes were inserted, the failure was
        // not, and its lease was released.
        assert_eq!(store.inserts(), 2);
        assert_eq!(store.load(&jobs[1].store_key()), None);
        assert!(store.leases().expect("lease listing").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(outcomes(&[], 4).is_empty());
    }

    #[test]
    fn shared_cache_builds_each_program_once_without_changing_results() {
        // Three jobs over one benchmark: two defense configs, with the
        // first repeated so a single worker exercises both simulator
        // reuse (reset in place) and rebuild (config change).
        let mut other = tiny_job("gcc");
        other.defense = DefenseConfig::Baseline;
        let jobs = vec![tiny_job("gcc"), other, tiny_job("gcc")];

        // Reference: each job executed in isolation (its own cache and
        // a fresh simulator).
        let solo: Vec<String> = jobs.iter().map(|j| j.execute().render()).collect();

        let programs = Arc::new(ProgramCache::new());
        let pooled: Vec<String> = run_jobs(&jobs, 1, &programs, None, |_, _| {})
            .into_iter()
            .map(|done| done.outcome.expect("tiny jobs halt").render())
            .collect();
        assert_eq!(pooled, solo, "reuse must not change any artifact");

        // 3 jobs x 2 programs (warm-up + measured) = 6 requests over 2
        // distinct (benchmark, iterations) keys.
        assert_eq!(programs.builds(), 2);
        assert_eq!(programs.hits(), 4);
    }

    #[test]
    fn a_panic_does_not_poison_the_workers_next_job() {
        // One worker, so the job after the panic necessarily runs on
        // the same worker — its mid-unwind simulator must be discarded,
        // not reset and reused.
        let (root, store) = scratch_store("poison");
        let claim = ClaimOptions::new("poison");
        let jobs = vec![tiny_job("gcc"), panicking_job(), tiny_job("gcc")];
        let expected = jobs[2].execute().render();
        for mode in [None, Some((&store, Some(&claim)))] {
            let programs = Arc::new(ProgramCache::new());
            let results = run_jobs(&jobs, 1, &programs, mode, |_, _| {});
            assert!(results[1].outcome.is_err());
            assert_eq!(
                results[2]
                    .outcome
                    .as_ref()
                    .expect("job after panic halts")
                    .render(),
                expected
            );
        }
        assert_eq!(store.load(&jobs[1].store_key()), None);
        assert!(store.leases().expect("lease listing").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn warm_store_serves_identical_results_and_skips_failures() {
        let (root, store) = scratch_store("store");
        let jobs = vec![tiny_job("gcc"), panicking_job(), tiny_job("mcf")];

        let programs = Arc::new(ProgramCache::new());
        let cold = run_jobs(&jobs, 2, &programs, Some((&store, None)), |_, done| {
            assert_eq!(done.source, JobSource::Simulated, "cold store simulates");
        });
        assert_eq!(store.hits(), 0);
        assert_eq!(store.inserts(), 2, "only successes are stored");

        let warm = run_jobs(&jobs, 2, &programs, Some((&store, None)), |_, _| {});
        assert_eq!(store.hits(), 2, "both successes hit on the second run");
        assert_eq!(warm[0].source, JobSource::Store);
        assert_eq!(warm[1].source, JobSource::Simulated, "the failure re-runs");
        assert_eq!(warm[2].source, JobSource::Store);
        for (cold, warm) in cold.iter().zip(&warm) {
            assert_eq!(
                cold.outcome.as_ref().map(Json::render).ok(),
                warm.outcome.as_ref().map(Json::render).ok(),
                "a store hit is byte-identical to the simulation"
            );
            // Without a claim there is no provenance and no lease.
            assert_eq!((&warm.origin, warm.remote), (&None, false));
        }
        assert!(store.leases().expect("lease listing").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn timed_runs_report_plausible_telemetry() {
        let jobs = vec![tiny_job("gcc"), tiny_job("mcf"), tiny_job("lbm")];
        let mut reported = vec![None; jobs.len()];
        let programs = Arc::new(ProgramCache::new());
        let results = run_jobs(&jobs, 2, &programs, None, |index, done| {
            assert!(done.outcome.is_ok());
            assert!(done.timing.worker < 2);
            reported[index] = Some(done.timing);
        });
        assert_eq!(results.len(), 3);
        for (done, reported) in results.iter().zip(reported) {
            assert_eq!(
                Some(done.timing),
                reported,
                "on_done saw the returned timing"
            );
        }
    }
}
