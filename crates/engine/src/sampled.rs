//! Sampled-run orchestration on the worker pool: one functional count
//! pass, one independent [`Workload::BenchWindow`] job per segment, and
//! weighted stitching of the window artifacts into a whole-program
//! estimate.
//!
//! The orchestrator deliberately runs *only* the count pass itself
//! (functional execution, tens of times faster than detailed) and
//! memoizes the count in the shared [`ProgramCache`]. Each window job
//! takes the count from that memo and recomputes only its own
//! fast-forward to its segment start, so the fast-forwards overlap
//! across workers instead of serializing in the driver. Window jobs
//! are content-hashed like any other job (`kind=bench-window`), so a
//! warm [`ResultStore`] serves a repeated sampled run without
//! simulating a single window.
//!
//! [`Workload::BenchWindow`]: crate::Workload::BenchWindow

use crate::cache::ProgramCache;
use crate::job::{JobSpec, MachinePreset, Workload, DEFAULT_BUDGET, DEFAULT_ITERATIONS};
use crate::scheduler::run_jobs;
use crate::JobSource;
use condspec::{
    count_insts, plan_segments, stitch_reports, DefenseConfig, LruPolicy, Report, SampledOptions,
    Simulator, WindowReport,
};
use condspec_stats::Json;
use condspec_store::ResultStore;
use condspec_workloads::spec::by_name;
use std::sync::Arc;

/// A sampled benchmark run, fully specified: the program, the defense
/// environment (including every machine/policy knob a detailed job
/// carries), and the sampling grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledBenchSpec {
    /// Benchmark name from the suite.
    pub benchmark: &'static str,
    /// Outer iterations of the program.
    pub iterations: u64,
    /// Defense environment every window runs under.
    pub defense: DefenseConfig,
    /// Machine preset every window runs on.
    pub machine: MachinePreset,
    /// Secure-LRU policy.
    pub lru: LruPolicy,
    /// §VI.C ablation: track only branch → memory dependences.
    pub branch_only: bool,
    /// §VII.B extension: ICache-hit filter on unsafe fetches.
    pub icache_filter: bool,
    /// Number of evenly spaced checkpoints / detailed windows.
    pub checkpoints: usize,
    /// Detailed instructions measured per window.
    pub window: u64,
    /// Detailed warm-up instructions before each window's stats reset.
    pub window_warmup: u64,
    /// Cycle budget per detailed window.
    pub budget: u64,
}

impl SampledBenchSpec {
    /// A sampled run of `benchmark` under `defense` on the paper-default
    /// machine with the default iteration count and sampling grid.
    pub fn new(benchmark: &'static str, defense: DefenseConfig) -> SampledBenchSpec {
        let defaults = SampledOptions::default();
        SampledBenchSpec {
            benchmark,
            iterations: DEFAULT_ITERATIONS,
            defense,
            machine: MachinePreset::PaperDefault,
            lru: LruPolicy::Update,
            branch_only: false,
            icache_filter: false,
            checkpoints: defaults.checkpoints,
            window: defaults.window,
            window_warmup: defaults.warmup,
            budget: DEFAULT_BUDGET,
        }
    }

    /// The sampled equivalent of a detailed [`Workload::Bench`] job:
    /// same benchmark, iterations, defense, machine, and policy knobs,
    /// default sampling grid. `None` for attack/variant/window jobs,
    /// which have no sampled form.
    pub fn from_bench_job(job: &JobSpec) -> Option<SampledBenchSpec> {
        let Workload::Bench {
            benchmark,
            iterations,
            ..
        } = &job.workload
        else {
            return None;
        };
        Some(SampledBenchSpec {
            iterations: *iterations,
            machine: job.machine,
            lru: job.lru,
            branch_only: job.branch_only,
            icache_filter: job.icache_filter,
            budget: job.budget,
            ..SampledBenchSpec::new(benchmark, job.defense)
        })
    }

    /// The window job measuring segment `index`.
    pub fn window_job(&self, index: usize) -> JobSpec {
        let mut job = JobSpec::bench_window(self.benchmark, self.defense, index);
        job.machine = self.machine;
        job.lru = self.lru;
        job.branch_only = self.branch_only;
        job.icache_filter = self.icache_filter;
        job.budget = self.budget;
        if let Workload::BenchWindow {
            iterations,
            checkpoints,
            window,
            window_warmup,
            ..
        } = &mut job.workload
        {
            *iterations = self.iterations;
            *checkpoints = self.checkpoints;
            *window = self.window;
            *window_warmup = self.window_warmup;
        }
        job
    }
}

/// What a sampled benchmark run produced.
#[derive(Debug, Clone)]
pub struct SampledBenchOutcome {
    /// Whole-program retired-instruction count from the count pass.
    pub total_insts: u64,
    /// The stitched whole-program estimate.
    pub report: Report,
    /// Per-window measurements, in segment order.
    pub windows: Vec<WindowReport>,
    /// Window jobs actually simulated this run.
    pub executed: usize,
    /// Window jobs served from the persistent result store.
    pub store_hits: usize,
}

/// The canonical identity of a checkpoint object, recorded with it in
/// the store and hashed into its [`checkpoint_store_key`].
/// Checkpoints are policy-agnostic (a quiesced boundary holds no
/// defense transient state), so the identity names only the workload,
/// the machine preset, the whole-program instruction count, and the
/// capture position — one stored checkpoint serves every defense. The
/// distinct `kind=checkpoint` prefix keeps checkpoint keys disjoint
/// from every job key.
pub fn checkpoint_identity(
    workload: &str,
    machine: &str,
    total_insts: u64,
    inst_index: u64,
) -> String {
    format!(
        "kind=checkpoint;workload={workload};machine={machine};\
         total={total_insts};inst={inst_index}"
    )
}

/// The persistent-store key a checkpoint object is filed under: the
/// hash of its [`checkpoint_identity`]. The shared code fingerprint
/// invalidates checkpoints together with results when simulation
/// semantics change.
pub fn checkpoint_store_key(
    workload: &str,
    machine: &str,
    total_insts: u64,
    inst_index: u64,
) -> String {
    crate::hash::store_key(&checkpoint_identity(
        workload,
        machine,
        total_insts,
        inst_index,
    ))
}

fn window_field(doc: &Json, key: &str, index: usize) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("window {index} artifact has no `{key}` field"))
}

/// Runs a complete sampled simulation of `spec` on `workers` threads:
/// functional count pass, one detailed window job per segment on the
/// scheduler (consulting `store` when given), weighted stitch.
///
/// # Errors
///
/// Fails on an unknown benchmark, a zero-checkpoint grid, a count pass
/// that does not halt, a failed window job, or a window artifact that
/// disagrees with the count pass (a stale store entry from a different
/// code generation would be caught here, not silently stitched).
pub fn run_sampled_bench(
    spec: &SampledBenchSpec,
    workers: usize,
    store: Option<&ResultStore>,
) -> Result<SampledBenchOutcome, String> {
    run_sampled_bench_with(spec, workers, &Arc::new(ProgramCache::new()), store)
}

/// [`run_sampled_bench`] sharing `programs` (built programs and
/// memoized instruction counts) with the caller, so several sampled
/// runs of one program build and count it once.
///
/// # Errors
///
/// As [`run_sampled_bench`].
pub fn run_sampled_bench_with(
    spec: &SampledBenchSpec,
    workers: usize,
    programs: &Arc<ProgramCache>,
    store: Option<&ResultStore>,
) -> Result<SampledBenchOutcome, String> {
    if spec.checkpoints == 0 {
        return Err("a sampled run needs at least one checkpoint".to_string());
    }
    if by_name(spec.benchmark).is_none() {
        return Err(format!("unknown benchmark `{}`", spec.benchmark));
    }
    let program = programs.get_or_build(spec.benchmark, spec.iterations);

    // Count pass: one functional run fixes the segment grid and fills
    // the memo the window jobs read it from.
    let opts = SampledOptions::default();
    let total_insts =
        programs.insts_or_count(spec.benchmark, spec.iterations, opts.max_insts, || {
            let mut sim = Simulator::new(spec.window_job(0).sim_config());
            count_insts(&mut sim, &program, &opts)
        })?;
    let segments = plan_segments(total_insts, spec.checkpoints);

    let jobs: Vec<JobSpec> = (0..segments.len()).map(|i| spec.window_job(i)).collect();
    let results = run_jobs(
        &jobs,
        workers,
        programs,
        store.map(|s| (s, None)),
        |_, _| {},
    );

    let mut windows = Vec::with_capacity(results.len());
    let (mut executed, mut store_hits) = (0usize, 0usize);
    for (index, done) in results.into_iter().enumerate() {
        match done.source {
            JobSource::Store => store_hits += 1,
            _ => executed += 1,
        }
        let doc = done
            .outcome
            .map_err(|e| format!("window {index} failed: {e}"))?;
        let artifact_total = window_field(&doc, "total_insts", index)?;
        if artifact_total != total_insts {
            return Err(format!(
                "window {index} artifact counted {artifact_total} instructions, \
                 the count pass {total_insts}"
            ));
        }
        let start_inst = window_field(&doc, "start_inst", index)?;
        let segment_len = window_field(&doc, "segment_len", index)?;
        if (start_inst, segment_len) != segments[index] {
            return Err(format!(
                "window {index} artifact covers [{start_inst}, +{segment_len}), \
                 the plan says [{}, +{})",
                segments[index].0, segments[index].1
            ));
        }
        let report = doc
            .get("report")
            .and_then(Report::from_json)
            .ok_or_else(|| format!("window {index} artifact has no parseable report"))?;
        windows.push(WindowReport {
            index,
            start_inst,
            segment_len,
            report,
        });
    }
    let report = stitch_reports(total_insts, &windows);
    Ok(SampledBenchOutcome {
        total_insts,
        report,
        windows,
        executed,
        store_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec::{run_sampled, run_window, SampledPlan, SimConfig};

    fn tiny_spec() -> SampledBenchSpec {
        SampledBenchSpec {
            iterations: 2,
            checkpoints: 3,
            window: 400,
            window_warmup: 50,
            ..SampledBenchSpec::new("gcc", DefenseConfig::CacheHit)
        }
    }

    #[test]
    fn pooled_sampled_run_matches_the_serial_driver() {
        let spec = tiny_spec();
        let pooled = run_sampled_bench(&spec, 2, None).expect("sampled run completes");

        let programs = ProgramCache::new();
        let program = programs.get_or_build(spec.benchmark, spec.iterations);
        let mut sim = Simulator::new(SimConfig::new(spec.defense));
        let opts = SampledOptions {
            checkpoints: spec.checkpoints,
            window: spec.window,
            warmup: spec.window_warmup,
            max_cycles: spec.budget,
            ..SampledOptions::default()
        };
        let serial = run_sampled(&mut sim, &program, spec.benchmark, &opts).expect("serial run");

        assert_eq!(pooled.total_insts, serial.total_insts);
        assert_eq!(pooled.windows, serial.windows);
        assert_eq!(pooled.report, serial.report);
        assert_eq!(pooled.executed, serial.windows.len());
        assert_eq!(pooled.store_hits, 0);
    }

    #[test]
    fn memoized_window_jobs_match_lone_jobs_and_the_serial_plan() {
        let root =
            std::env::temp_dir().join(format!("condspec-sampled-memo-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let spec = tiny_spec();
        let programs = Arc::new(ProgramCache::new());
        let pooled = run_sampled_bench_with(&spec, 2, &programs, Some(&store)).expect("pooled run");
        let n = pooled.windows.len() as u64;
        assert_eq!((programs.count_runs(), programs.counts_served()), (1, n));

        let program = programs.get_or_build(spec.benchmark, spec.iterations);
        let mut sim = Simulator::new(SimConfig::new(spec.defense));
        let opts = SampledOptions {
            checkpoints: spec.checkpoints,
            window: spec.window,
            warmup: spec.window_warmup,
            max_cycles: spec.budget,
            ..SampledOptions::default()
        };
        let plan = SampledPlan::build(&mut sim, &program, spec.benchmark, &opts).expect("plan");
        assert_eq!(plan.total_insts, pooled.total_insts);
        for (index, window) in plan.windows.iter().enumerate() {
            let job = spec.window_job(index);
            // The pooled run's artifact, as filed in the store.
            let pooled_doc = store.load(&job.store_key()).expect("window filed").render();
            // A lone job on a fresh context, with no memo to read.
            assert_eq!(pooled_doc, job.execute().render(), "window {index}");
            let serial = run_window(&mut sim, window, &program, &opts).expect("serial window");
            let doc = Json::parse(&pooled_doc).expect("artifact parses");
            assert_eq!(doc.get("report"), Some(&serial.report.to_json()));
            assert_eq!(
                window_field(&doc, "start_inst", index),
                Ok(window.start_inst)
            );
            assert_eq!(
                window_field(&doc, "segment_len", index),
                Ok(window.segment_len)
            );
            assert_eq!(
                window_field(&doc, "total_insts", index),
                Ok(plan.total_insts)
            );
        }

        // A memoized total never hides the limit error of a fresh pass.
        let limit = pooled.total_insts - 1;
        let tight = SampledOptions {
            max_insts: limit,
            ..opts
        };
        let err = programs
            .insts_or_count(spec.benchmark, spec.iterations, limit, || {
                count_insts(&mut sim, &program, &tight)
            })
            .unwrap_err();
        assert!(err.contains("InstLimit"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_warm_store_serves_every_window() {
        let root =
            std::env::temp_dir().join(format!("condspec-sampled-store-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let spec = tiny_spec();
        let cold = run_sampled_bench(&spec, 2, Some(&store)).expect("cold run");
        assert_eq!(cold.store_hits, 0);
        let warm = run_sampled_bench(&spec, 2, Some(&store)).expect("warm run");
        assert_eq!(warm.executed, 0, "every window comes from the store");
        assert_eq!(warm.store_hits, cold.windows.len());
        assert_eq!(warm.report, cold.report);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_keys_are_position_sensitive_and_disjoint_from_jobs() {
        let a = checkpoint_store_key("gcc", "paper-default", 1000, 0);
        let b = checkpoint_store_key("gcc", "paper-default", 1000, 500);
        assert_ne!(a, b, "capture position changes the key");
        let identity = checkpoint_identity("gcc", "paper-default", 1000, 500);
        assert_eq!(
            identity,
            "kind=checkpoint;workload=gcc;machine=paper-default;total=1000;inst=500"
        );
        assert_eq!(
            b,
            crate::hash::store_key(&identity),
            "the key hashes the identity"
        );
        let job = JobSpec::bench_window("gcc", DefenseConfig::Origin, 0).store_key();
        assert_ne!(a, job, "checkpoints never alias window jobs");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut zero = tiny_spec();
        zero.checkpoints = 0;
        assert!(run_sampled_bench(&zero, 1, None)
            .unwrap_err()
            .contains("at least one checkpoint"));
        let mut unknown = tiny_spec();
        unknown.benchmark = "vax";
        assert!(run_sampled_bench(&unknown, 1, None)
            .unwrap_err()
            .contains("unknown benchmark"));
    }
}
