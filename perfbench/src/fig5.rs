//! `fig5-cold`: the full Figure 5 sweep (110 jobs) on two workers from
//! an empty store and an empty run directory, through `run_sweep`.
//!
//! Its unit of latency is one sweep job, read from the engine's own
//! `telemetry.json` (n = 110 per round). The traced run drives the same
//! jobs through `ProgramCache`, `Simulator::run_job`, `Json::render`,
//! the artifact directory and `ResultStore` from this file, with a span
//! around each call.

use crate::reference::{self, Fig5Ref, PAPER_FIG5};
use crate::trace::{SpanStats, Tracer};
use crate::{
    artifact_files, artifacts_digest, expect_eq, permute, pipeline_layers, remove_dir, report_sums,
    rounds_for, same_artifacts, span_layers, store_layers, timed, traced_pool, with_peak_rss,
    write_atomically, EndToEnd, Gates, Options, Size, Traced, WORKERS,
};
use condspec::{DefenseConfig, Report};
use condspec_engine::hash::code_fingerprint;
use condspec_engine::{
    run_sweep, JobSource, JobSpec, JobStatus, ManifestInfo, ProgramCache, ResultStore, Sweep,
    SweepDir, SweepOptions, SweepResults, WorkerContext, Workload,
};
use condspec_stats::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;

/// Builds the job list in seed order and hashes it: the set-up every
/// round shares.
fn setup(opts: &Options) -> (Sweep, Vec<f64>) {
    let mut times = Vec::new();
    let mut sweep = None;
    for _ in 0..SETUP_REPEATS {
        let (s, t) = timed(|| {
            let mut s = Sweep::by_name("fig5").expect("fig5 is a named sweep");
            if opts.size == Size::Small {
                s = s.scaled(Some(1), Some(1));
            }
            permute(&mut s.jobs, opts.seed);
            let keys: usize = s.jobs.iter().map(|j| j.store_key().len()).sum();
            std::hint::black_box((s.sweep_id(), keys));
            s
        });
        times.push(t);
        sweep = Some(s);
    }
    (sweep.expect("at least one set-up"), times)
}

/// The sweep of round `r`: the seed's job order for round 0, shuffled
/// again from the seed for each later round, so that a run's rounds
/// average over which jobs share the two workers.
fn round_sweep(sweep: &Sweep, seed: u64, r: usize) -> Sweep {
    let mut s = sweep.clone();
    if r > 0 {
        permute(&mut s.jobs, seed.wrapping_add(r as u64));
    }
    s
}

/// The Figure 5 column of a job: 0 Baseline, 1 Cache-hit,
/// 2 Cache-hit+TPBuf, 3 branch-only Baseline; `None` for Origin.
fn column(job: &JobSpec) -> Option<usize> {
    match (job.branch_only, job.defense) {
        (true, _) => Some(3),
        (false, DefenseConfig::Origin) => None,
        (false, DefenseConfig::Baseline) => Some(0),
        (false, DefenseConfig::CacheHit) => Some(1),
        (false, DefenseConfig::CacheHitTpbuf) => Some(2),
    }
}

/// The mean relative error (%) of the four Figure 5 averages of
/// `results` against the paper's.
pub fn paper_err_pct(jobs: &[JobSpec], results: &SweepResults) -> f64 {
    let cycles = |job: &JobSpec| {
        results
            .get(&job.hash_hex())
            .and_then(|d| d.get("report")?.get("cycles")?.as_f64())
            .map(|c| c.max(1.0))
    };
    let mut origin: BTreeMap<&str, f64> = BTreeMap::new();
    for job in jobs.iter().filter(|j| column(j).is_none()) {
        if let (Workload::Bench { benchmark, .. }, Some(c)) = (&job.workload, cycles(job)) {
            origin.insert(benchmark, c);
        }
    }
    let mut columns: [Vec<f64>; 4] = Default::default();
    for job in jobs {
        if let (Some(col), Workload::Bench { benchmark, .. }) = (column(job), &job.workload) {
            if let (Some(o), Some(c)) = (origin.get(benchmark), cycles(job)) {
                columns[col].push(c / o);
            }
        }
    }
    let err: f64 = columns
        .iter()
        .zip(PAPER_FIG5)
        .map(|(col, paper)| {
            let avg = col.iter().sum::<f64>() / col.len().max(1) as f64;
            (avg - paper).abs() / paper
        })
        .sum();
    err / 4.0 * 100.0
}

/// Checks one round's outputs against the recorded reference.
pub fn check_outputs(
    jobs: usize,
    failed: usize,
    results: &SweepResults,
    files: &[(String, Vec<u8>)],
    reference: Fig5Ref,
    gates: &mut Gates,
) {
    gates.jobs(jobs, failed);
    gates.check(
        "fig5 artifact digest",
        expect_eq(artifacts_digest(files).as_str(), reference.digest),
    );
    gates.check(
        "fig5 (cycles, committed) sums",
        expect_eq(
            report_sums(results),
            (reference.cycles, reference.committed),
        ),
    );
}

/// `Ok` when the store under `root` serves every job's artifact exactly
/// as the sweep produced it.
pub fn check_store(jobs: &[JobSpec], results: &SweepResults, root: &Path) -> Result<(), String> {
    let store = ResultStore::open(root);
    for job in jobs {
        if store.load(&job.store_key()).as_ref() != results.get(&job.hash_hex()) {
            return Err(format!(
                "store entry of {} missing or different",
                job.label()
            ));
        }
    }
    Ok(())
}

/// `Ok` when the leak matrix holds: Origin leaks through the cache on
/// every gadget and every defense is clean.
fn check_leak_matrix(sweep: &Sweep, results: &SweepResults) -> Result<(), String> {
    for job in &sweep.jobs {
        let Workload::LeakProbe { kind } = job.workload else {
            continue;
        };
        let leaked = results
            .get(&job.hash_hex())
            .and_then(|d| d.get("cache_leaked")?.as_bool())
            .ok_or_else(|| format!("no leak verdict for {}", job.label()))?;
        if leaked != (job.defense == DefenseConfig::Origin) {
            return Err(format!(
                "{} under {}: cache_leaked = {leaked}",
                kind.key(),
                job.defense.key()
            ));
        }
    }
    Ok(())
}

/// Runs the `leaks` sweep (16 jobs, well under a second) once after the
/// timed rounds and checks its matrix.
fn check_leaks(dir: &Path, gates: &mut Gates) -> Result<(), String> {
    let sweep = Sweep::by_name("leaks").expect("leaks is a named sweep");
    let sweep_opts = SweepOptions {
        workers: WORKERS,
        root: dir.to_path_buf(),
        quiet: true,
        ..SweepOptions::default()
    };
    let out = run_sweep(&sweep, &sweep_opts).map_err(|e| format!("leaks sweep: {e}"))?;
    gates.jobs(sweep.jobs.len(), out.failed.len());
    gates.check("leak matrix", check_leak_matrix(&sweep, &out.results));
    remove_dir(dir)
}

struct Round {
    wall: f64,
    job_ms: Vec<f64>,
    results: SweepResults,
    files: Vec<(String, Vec<u8>)>,
}

fn untraced_round(
    sweep: &Sweep,
    dir: &Path,
    opts: &Options,
    gates: &mut Gates,
) -> Result<Round, String> {
    let sweep_opts = SweepOptions {
        workers: WORKERS,
        root: dir.join("runs"),
        store: Some(dir.join("store")),
        quiet: true,
        telemetry: true,
        ..SweepOptions::default()
    };
    let (out, wall) = timed(|| run_sweep(sweep, &sweep_opts));
    let out = out.map_err(|e| format!("fig5 sweep: {e}"))?;
    let files = artifact_files(&out.dir)?;
    gates.check(
        "fig5 ran cold (executed, store hits)",
        expect_eq((out.executed, out.store_hits), (sweep.jobs.len(), 0)),
    );
    check_outputs(
        sweep.jobs.len(),
        out.failed.len(),
        &out.results,
        &files,
        reference::fig5(opts.size),
        gates,
    );
    gates.check(
        "fig5 store serves every artifact",
        check_store(&sweep.jobs, &out.results, &dir.join("store")),
    );
    let telemetry = std::fs::read_to_string(out.dir.join("telemetry.json"))
        .map_err(|e| format!("telemetry.json: {e}"))?;
    let telemetry = Json::parse(&telemetry).map_err(|e| format!("telemetry.json: {e:?}"))?;
    let job_ms = telemetry
        .get("jobs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|j| j.get("wall_ms")?.as_f64())
        .collect();
    Ok(Round {
        wall,
        job_ms,
        results: out.results,
        files,
    })
}

/// The untraced run: rounds of cold sweeps for `opts.seconds`.
pub fn end_to_end(opts: &Options, gates: &mut Gates) -> Result<EndToEnd, String> {
    let (sweep, setup_s) = setup(opts);
    let mut e2e = EndToEnd {
        setup_s,
        jobs_per_round: sweep.jobs.len() as u64,
        ..EndToEnd::default()
    };
    let mut cold_round = |r: usize| {
        let dir = opts.work.join(format!("fig5-{r}"));
        let (round, peak_mb) =
            with_peak_rss(|| untraced_round(&round_sweep(&sweep, opts.seed, r), &dir, opts, gates));
        remove_dir(&dir)?;
        round.map(|round| (round, peak_mb))
    };
    // The first round of a process often runs slower than the rest, so
    // it warms the process up: its outputs are checked like every
    // round's, its time counts against `opts.seconds`, and it is left out
    // of the metrics.
    let (warm_up, warm_up_s) = timed(|| cold_round(0));
    warm_up?;
    // Each timed round is folded in as it ends, so that its results and
    // artifacts are freed before the next and peak memory does not grow
    // with the number of rounds.
    rounds_for(opts.seconds - warm_up_s, usize::MAX, |r| {
        let (round, peak_mb) = cold_round(r + 1)?;
        e2e.insts_per_round = report_sums(&round.results).1;
        e2e.model_err_pct = paper_err_pct(&sweep.jobs, &round.results);
        e2e.round_s.push(round.wall);
        e2e.unit_ms.push(round.job_ms);
        e2e.peak_rss_mb.push(peak_mb);
        Ok(())
    })?;
    check_leaks(&opts.work.join("leaks"), gates)?;
    Ok(e2e)
}

struct JobOut {
    doc: Json,
    report: Report,
    bytes: usize,
}

/// One benchmark job, as the engine's worker runs it, with a span
/// around each layer call.
fn traced_job(
    tracer: &Tracer,
    spec: &JobSpec,
    ctx: &mut WorkerContext,
    store: &ResultStore,
    dir: &SweepDir,
    span: usize,
    index: usize,
) -> Result<JobOut, String> {
    let (p, j) = (Some(span), Some(index as u64));
    let key = spec.store_key();
    if tracer
        .span("store.load", p, j, |_| store.load(&key))
        .is_some()
    {
        return Err("store hit in a cold sweep".to_string());
    }
    let Workload::Bench {
        benchmark,
        iterations,
        warmup,
    } = spec.workload
    else {
        return Err(format!("{} is not a benchmark job", spec.label()));
    };
    let warm = tracer.span("workloads.get_or_build", p, j, |_| {
        ctx.programs().get_or_build(benchmark, warmup)
    });
    let measured = tracer.span("workloads.get_or_build", p, j, |_| {
        ctx.programs().get_or_build(benchmark, iterations)
    });
    let sim = ctx.simulator(spec.sim_config());
    let report = tracer.span("core.run_job", p, j, |_| {
        sim.run_job(Some(&warm), &measured, spec.budget)
    });
    let stalls = sim.core().stats().icache_fetch_stalls;
    let hash = spec.hash_hex();
    let (doc, text) = tracer.span("stats.render", p, j, |_| {
        let doc = Json::object(vec![
            ("job", Json::from(hash.as_str())),
            ("key", Json::from(spec.canonical_key())),
            ("report", report.to_json()),
            ("icache_fetch_stalls", Json::from(stalls)),
        ]);
        let text = doc.render() + "\n";
        (doc, text)
    });
    tracer.span("engine.artifact_write", p, j, |_| {
        write_atomically(&dir.artifact_path(&hash), &text)
    })?;
    tracer
        .span("store.insert", p, j, |_| {
            store.insert(&key, &hash, &spec.label(), code_fingerprint(), &doc)
        })
        .map_err(|e| format!("store insert: {e}"))?;
    Ok(JobOut {
        doc,
        report,
        bytes: text.len(),
    })
}

fn inst_metric(job: &JobSpec) -> &'static str {
    match (job.branch_only, job.defense) {
        (true, _) => "core.ns_per_inst.branch-only",
        (false, DefenseConfig::Origin) => "core.ns_per_inst.origin",
        (false, DefenseConfig::Baseline) => "core.ns_per_inst.baseline",
        (false, DefenseConfig::CacheHit) => "core.ns_per_inst.cache-hit",
        (false, DefenseConfig::CacheHitTpbuf) => "core.ns_per_inst.cache-hit-tpbuf",
    }
}

fn traced_round(
    sweep: &Sweep,
    dir: &Path,
    reference: Fig5Ref,
    expected: &[(String, Vec<u8>)],
    gates: &mut Gates,
    traced: &mut Traced,
) -> Result<(), String> {
    let tracer = Tracer::default();
    let programs = Arc::new(ProgramCache::new());
    let store = ResultStore::open(dir.join("store"));
    let sweep_id = sweep.sweep_id();
    let (outs, wall) = timed(|| {
        tracer.span("engine.sweep", None, None, |root| {
            let sweep_dir = SweepDir::create(&dir.join("runs"), &sweep_id)
                .map_err(|e| format!("sweep dir: {e}"))?;
            let outs = traced_pool(
                &tracer,
                Some(root),
                sweep.jobs.len(),
                || WorkerContext::new(Arc::clone(&programs)),
                |i, ctx, span| {
                    traced_job(&tracer, &sweep.jobs[i], ctx, &store, &sweep_dir, span, i)
                },
            );
            let statuses: Vec<JobStatus> = sweep
                .jobs
                .iter()
                .zip(&outs)
                .map(|(job, out)| JobStatus {
                    hash: job.hash_hex(),
                    label: job.label(),
                    status: if out.is_ok() { "ok" } else { "failed" },
                    source: JobSource::Simulated,
                    owner: None,
                })
                .collect();
            let info = ManifestInfo {
                sweep_name: sweep.name,
                sweep_id: &sweep_id,
                bench_iterations: None,
                bench_warmup: None,
            };
            tracer
                .span("engine.manifest_write", Some(root), None, |_| {
                    sweep_dir.write_manifest(&info, &statuses)
                })
                .map_err(|e| format!("manifest: {e}"))?;
            let results: SweepResults = sweep
                .jobs
                .iter()
                .zip(&outs)
                .filter_map(|(job, out)| Some((job.hash_hex(), out.as_ref().ok()?.doc.clone())))
                .collect();
            tracer.span("engine.render", Some(root), None, |_| {
                std::hint::black_box(sweep.render(&results))
            });
            Ok::<_, String>((sweep_dir, outs, results))
        })
    });
    let (sweep_dir, outs, results) = outs?;
    let failed = outs.iter().filter(|o| o.is_err()).count();
    for err in outs.iter().filter_map(|o| o.as_ref().err()) {
        eprintln!("perfbench: traced fig5 job failed: {err}");
    }
    let files = artifact_files(sweep_dir.path())?;
    check_outputs(sweep.jobs.len(), failed, &results, &files, reference, gates);
    gates.check(
        "traced fig5 artifacts byte-identical to untraced",
        same_artifacts(&files, expected),
    );
    gates.check(
        "fig5 store serves every artifact",
        check_store(&sweep.jobs, &results, &dir.join("store")),
    );
    for (_, bytes) in &files {
        let text = String::from_utf8_lossy(bytes);
        tracer.span("stats.parse", None, None, |_| {
            std::hint::black_box(Json::parse(&text).is_ok())
        });
    }

    let stats = SpanStats::new(tracer.spans());
    let mut layers = span_layers(&stats);
    let ok: Vec<&JobOut> = outs.iter().filter_map(|o| o.as_ref().ok()).collect();
    let reports: Vec<Report> = ok.iter().map(|o| o.report).collect();
    pipeline_layers(&reports, &mut layers);
    store_layers(&store, &mut layers);
    layers.insert("workloads.builds", programs.builds() as f64);
    layers.insert("workloads.cache_hits", programs.hits() as f64);
    layers.insert(
        "stats.artifact_bytes",
        ok.iter().map(|o| o.bytes as f64).sum(),
    );
    let cycles: f64 = reports.iter().map(|r| r.cycles as f64).sum();
    layers.insert(
        "core.ns_per_cycle",
        stats.total_ns("core.run_job") / cycles.max(1.0),
    );
    let mut per_inst: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for span in stats.spans().iter().filter(|s| s.name == "core.run_job") {
        let index = span.job.expect("job spans carry their job") as usize;
        if let Ok(out) = &outs[index] {
            let slot = per_inst.entry(inst_metric(&sweep.jobs[index])).or_default();
            slot.0 += span.ns() as f64;
            slot.1 += out.report.committed as f64;
        }
    }
    for (name, (ns, insts)) in per_inst {
        layers.insert(name, ns / insts.max(1.0));
    }
    traced.traced_s.push(wall);
    traced.layers.push(layers);
    traced.spans.push(stats);
    Ok(())
}

/// The traced run: untraced rounds for half the time, then traced
/// rounds for the other half, whose artifacts must match byte for byte.
pub fn traced(opts: &Options, gates: &mut Gates) -> Result<Traced, String> {
    let (sweep, _) = setup(opts);
    let mut traced = Traced::default();
    let mut expected = Vec::new();
    rounds_for(opts.seconds / 2.0, usize::MAX, |r| {
        let dir = opts.work.join(format!("fig5-{r}"));
        let round = untraced_round(&sweep, &dir, opts, gates);
        remove_dir(&dir)?;
        let round = round?;
        traced.untraced_s.push(round.wall);
        expected = round.files;
        Ok(())
    })?;
    rounds_for(opts.seconds / 2.0, usize::MAX, |r| {
        let dir = opts.work.join(format!("fig5-traced-{r}"));
        let round = traced_round(
            &sweep,
            &dir,
            reference::fig5(opts.size),
            &expected,
            gates,
            &mut traced,
        );
        remove_dir(&dir)?;
        round
    })?;
    check_leaks(&opts.work.join("leaks"), gates)?;
    Ok(traced)
}
