//! `sampled-long`: `run_sampled_bench` of mcf, lbm and gcc at 4000
//! iterations under Cache-hit+TPBuf, two workers, a fresh store per
//! round. Each program retires 28–35 M instructions, sampled by eight
//! 1 M-instruction windows.
//!
//! Its unit of latency is one sampled program (one `run_sampled_bench`
//! call, n = 3 per round): the engine does not expose per-window times,
//! which the traced run reports as `core.window_ms` instead. The traced
//! run replays the same protocol from this file — functional count
//! pass, then per window a count pass, fast-forward, checkpoint
//! capture, restore, detailed warm-up and window — with a span around
//! each call.

use crate::reference::{self, SampledRef};
use crate::trace::{SpanStats, Tracer};
use crate::{
    expect_eq, permute, pipeline_layers, remove_dir, rounds_for, span_layers, store_layers, timed,
    traced_pool, with_peak_rss, EndToEnd, Gates, Options, Size, Traced, WORKERS,
};
use condspec::{
    plan_segments, stitch_reports, DefenseConfig, ExitReason, FunctionalExit, Report,
    SampledOptions, Simulator, WindowReport,
};
use condspec_engine::hash::code_fingerprint;
use condspec_engine::{run_sampled_bench, JobSpec, ProgramCache, ResultStore, SampledBenchSpec};
use condspec_isa::Program;
use condspec_stats::Json;
use std::path::Path;
use std::sync::Arc;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;

/// The sampled programs.
pub const PROGRAMS: [&str; 3] = ["mcf", "lbm", "gcc"];

/// The run of `benchmark` at `size`.
pub fn spec(benchmark: &'static str, size: Size) -> SampledBenchSpec {
    let base = SampledBenchSpec::new(benchmark, DefenseConfig::CacheHitTpbuf);
    match size {
        Size::Full => SampledBenchSpec {
            iterations: 4000,
            ..base
        },
        Size::Small => SampledBenchSpec {
            iterations: 20,
            window: 2_000,
            window_warmup: 200,
            ..base
        },
    }
}

fn setup(opts: &Options) -> (Vec<SampledBenchSpec>, Vec<f64>) {
    let mut times = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (s, t) = timed(|| {
            let mut s: Vec<SampledBenchSpec> =
                PROGRAMS.iter().map(|b| spec(b, opts.size)).collect();
            permute(&mut s, opts.seed);
            let keys: usize = s
                .iter()
                .flat_map(|spec| (0..spec.checkpoints).map(|i| spec.window_job(i).store_key()))
                .map(|k| k.len())
                .sum();
            std::hint::black_box(keys);
            s
        });
        times.push(t);
        specs = s;
    }
    (specs, times)
}

fn reference_for(benchmark: &str, size: Size) -> Result<SampledRef, String> {
    reference::sampled(size)
        .iter()
        .find(|r| r.benchmark == benchmark)
        .copied()
        .ok_or_else(|| format!("no reference for {benchmark}"))
}

/// What one program's sampled run produced, rendered for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramOut {
    /// Whole-program instruction count.
    pub total_insts: u64,
    /// The stitched report.
    pub report: Report,
    /// The rendered stitched report and window reports.
    pub rendered: Vec<String>,
}

impl ProgramOut {
    fn new(total_insts: u64, report: Report, windows: &[WindowReport]) -> ProgramOut {
        let mut rendered = vec![report.to_json().render()];
        rendered.extend(windows.iter().map(|w| {
            format!(
                "{} {} {} {}",
                w.index,
                w.start_inst,
                w.segment_len,
                w.report.to_json().render()
            )
        }));
        ProgramOut {
            total_insts,
            report,
            rendered,
        }
    }
}

/// Checks one program's stitched output against its reference.
pub fn check_program(benchmark: &str, out: &ProgramOut, size: Size, gates: &mut Gates) {
    let outcome = reference_for(benchmark, size).and_then(|r| {
        expect_eq(
            (
                out.total_insts,
                out.report.cycles,
                crate::sha256::hex_digest(out.rendered[0].as_bytes()),
            ),
            (
                r.total_insts,
                r.stitched_cycles,
                r.report_digest.to_string(),
            ),
        )
    });
    gates.check(&format!("{benchmark} stitched report"), outcome);
}

/// The mean relative error (%) of stitched cycles against the recorded
/// full-detailed runs.
fn cycle_err_pct(outs: &[(&str, ProgramOut)], size: Size) -> f64 {
    let errs: Vec<f64> = outs
        .iter()
        .filter_map(|(b, out)| {
            let r = reference_for(b, size).ok()?;
            let detailed = r.detailed_cycles.max(1) as f64;
            Some((out.report.cycles as f64 - detailed).abs() / detailed * 100.0)
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

struct Round {
    wall: f64,
    program_ms: Vec<f64>,
    outs: Vec<(&'static str, ProgramOut)>,
    windows: u64,
}

fn untraced_round(specs: &[SampledBenchSpec], dir: &Path, size: Size, gates: &mut Gates) -> Round {
    let store = ResultStore::open(dir.join("store"));
    let mut round = Round {
        wall: 0.0,
        program_ms: Vec::new(),
        outs: Vec::new(),
        windows: 0,
    };
    for spec in specs {
        let (out, t) = timed(|| run_sampled_bench(spec, WORKERS, Some(&store)));
        round.wall += t;
        round.program_ms.push(t * 1e3);
        match out {
            Ok(out) => {
                gates.jobs(out.windows.len(), 0);
                gates.check(
                    &format!("{} windows simulated, none from the store", spec.benchmark),
                    expect_eq((out.executed, out.store_hits), (out.windows.len(), 0)),
                );
                round.windows += out.windows.len() as u64;
                let out = ProgramOut::new(out.total_insts, out.report, &out.windows);
                check_program(spec.benchmark, &out, size, gates);
                round.outs.push((spec.benchmark, out));
            }
            Err(e) => {
                eprintln!("perfbench: sampled {} failed: {e}", spec.benchmark);
                gates.jobs(spec.checkpoints, spec.checkpoints);
            }
        }
    }
    round
}

/// The untraced run: rounds of the three sampled programs.
pub fn end_to_end(opts: &Options, gates: &mut Gates) -> Result<EndToEnd, String> {
    let (specs, setup_s) = setup(opts);
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let rounds = rounds_for(opts.seconds, usize::MAX, |r| {
        let dir = opts.work.join(format!("sampled-{r}"));
        let round = with_peak_rss(|| untraced_round(&specs, &dir, opts.size, gates));
        remove_dir(&dir)?;
        Ok(round)
    })?;
    for (round, peak_mb) in rounds {
        e2e.insts_per_round = round.outs.iter().map(|(_, o)| o.total_insts).sum();
        e2e.jobs_per_round = round.windows;
        e2e.model_err_pct = cycle_err_pct(&round.outs, opts.size);
        e2e.round_s.push(round.wall);
        e2e.unit_ms.push(round.program_ms);
        e2e.peak_rss_mb.push(peak_mb);
    }
    Ok(e2e)
}

struct WindowOut {
    window: WindowReport,
    functional_insts: u64,
    bytes: usize,
}

fn functional(sim: &mut Simulator, program: &Arc<Program>, insts: u64) -> Result<u64, String> {
    sim.reset_in_place();
    sim.load_program(Arc::clone(program));
    if insts == 0 {
        return Ok(0);
    }
    let r = sim.run_functional(insts)?;
    Ok(r.retired)
}

/// One window job, as the engine's worker runs it: count pass,
/// fast-forward, capture, restore, detailed warm-up and window.
#[allow(clippy::too_many_arguments)]
fn traced_window(
    tracer: &Tracer,
    spec: &SampledBenchSpec,
    job: &JobSpec,
    programs: &ProgramCache,
    store: &ResultStore,
    slot: &mut Option<Simulator>,
    span: usize,
    index: usize,
) -> Result<WindowOut, String> {
    let (p, j) = (Some(span), Some(index as u64));
    let key = job.store_key();
    if tracer
        .span("store.load", p, j, |_| store.load(&key))
        .is_some()
    {
        return Err("store hit in a fresh store".to_string());
    }
    let program = tracer.span("workloads.get_or_build", p, j, |_| {
        programs.get_or_build(spec.benchmark, spec.iterations)
    });
    let sim = slot.get_or_insert_with(|| Simulator::new(job.sim_config()));
    let opts = SampledOptions {
        checkpoints: spec.checkpoints,
        window: spec.window,
        warmup: spec.window_warmup,
        max_cycles: spec.budget,
        ..SampledOptions::default()
    };
    let total = tracer.span("core.functional", p, j, |_| {
        functional(sim, &program, opts.max_insts)
    })?;
    let &(start, len) = plan_segments(total, opts.checkpoints)
        .get(index)
        .ok_or_else(|| format!("window {index} outside the plan"))?;
    let forwarded = tracer.span("core.functional", p, j, |_| {
        functional(sim, &program, start)
    })?;
    if forwarded != start {
        return Err(format!("fast-forward retired {forwarded} of {start}"));
    }
    let checkpoint = tracer.span("core.checkpoint_capture", p, j, |_| {
        sim.capture_checkpoint(spec.benchmark, start)
    });
    tracer.span("core.checkpoint_restore", p, j, |_| {
        sim.restore_checkpoint(&checkpoint, Arc::clone(&program))
    })?;
    let report = tracer.span("core.window", p, j, |_| {
        let mut warmup = opts.warmup.min(len.saturating_sub(1));
        if warmup > 0 {
            let r = sim.run_until_committed(warmup, opts.max_cycles);
            if r.exit == ExitReason::Halted {
                sim.restore_checkpoint(&checkpoint, Arc::clone(&program))?;
                warmup = 0;
            } else if r.exit != ExitReason::CommitLimit {
                return Err(format!("window {index} warm-up exited {:?}", r.exit));
            }
        }
        sim.reset_stats();
        let r = sim.run_until_committed(opts.window.min(len - warmup).max(1), opts.max_cycles);
        if r.exit != ExitReason::CommitLimit && r.exit != ExitReason::Halted {
            return Err(format!("window {index} exited {:?}", r.exit));
        }
        Ok(sim.report())
    })?;
    let hash = job.hash_hex();
    let (doc, text) = tracer.span("stats.render", p, j, |_| {
        let doc = Json::object(vec![
            ("job", Json::from(hash.as_str())),
            ("key", Json::from(job.canonical_key())),
            ("report", report.to_json()),
            ("total_insts", Json::from(total)),
            ("start_inst", Json::from(start)),
            ("segment_len", Json::from(len)),
        ]);
        let text = doc.render();
        (doc, text)
    });
    tracer
        .span("store.insert", p, j, |_| {
            store.insert(&key, &hash, &job.label(), code_fingerprint(), &doc)
        })
        .map_err(|e| format!("store insert: {e}"))?;
    tracer.span("stats.parse", None, j, |_| {
        std::hint::black_box(Json::parse(&text).is_ok())
    });
    Ok(WindowOut {
        window: WindowReport {
            index,
            start_inst: start,
            segment_len: len,
            report,
        },
        functional_insts: total + forwarded,
        bytes: text.len() + 1,
    })
}

struct ProgramTrace {
    out: ProgramOut,
    windows: Vec<WindowOut>,
    builds: u64,
    hits: u64,
}

fn traced_program(
    tracer: &Tracer,
    spec: &SampledBenchSpec,
    store: &ResultStore,
    parent: usize,
) -> Result<ProgramTrace, String> {
    tracer.span("engine.sampled", Some(parent), None, |root| {
        let programs = ProgramCache::new();
        let p = Some(root);
        let program = tracer.span("workloads.get_or_build", p, None, |_| {
            programs.get_or_build(spec.benchmark, spec.iterations)
        });
        let mut sim = Simulator::new(spec.window_job(0).sim_config());
        sim.load_program(Arc::clone(&program));
        let count = tracer.span("core.functional", p, None, |_| {
            sim.run_functional(SampledOptions::default().max_insts)
        })?;
        if count.exit != FunctionalExit::Halted {
            return Err(format!("count pass exited {:?}", count.exit));
        }
        let segments = plan_segments(count.retired, spec.checkpoints);
        let jobs: Vec<JobSpec> = (0..segments.len()).map(|i| spec.window_job(i)).collect();
        let outs = traced_pool(
            tracer,
            p,
            jobs.len(),
            || None,
            |i, slot, span| traced_window(tracer, spec, &jobs[i], &programs, store, slot, span, i),
        );
        let mut windows = Vec::with_capacity(outs.len());
        for out in outs {
            windows.push(out?);
        }
        let window_reports: Vec<WindowReport> = windows.iter().map(|w| w.window).collect();
        let report = tracer.span("core.stitch", p, None, |_| {
            stitch_reports(count.retired, &window_reports)
        });
        Ok(ProgramTrace {
            out: ProgramOut::new(count.retired, report, &window_reports),
            windows,
            builds: programs.builds(),
            hits: programs.hits(),
        })
    })
}

fn traced_round(
    specs: &[SampledBenchSpec],
    dir: &Path,
    expected: &[(&'static str, ProgramOut)],
    size: Size,
    gates: &mut Gates,
    traced: &mut Traced,
) {
    let tracer = Tracer::default();
    let store = ResultStore::open(dir.join("store"));
    let (programs, wall) = timed(|| {
        tracer.span("engine.round", None, None, |root| {
            specs
                .iter()
                .map(|spec| (spec, traced_program(&tracer, spec, &store, root)))
                .collect::<Vec<_>>()
        })
    });
    let mut layers_windows = Vec::new();
    let (mut builds, mut hits, mut functional_insts) = (0u64, 0u64, 0u64);
    for (spec, result) in programs {
        match result {
            Ok(trace) => {
                gates.jobs(trace.windows.len(), 0);
                check_program(spec.benchmark, &trace.out, size, gates);
                let untraced = expected.iter().find(|(b, _)| *b == spec.benchmark);
                gates.check(
                    &format!(
                        "traced {} reports byte-identical to untraced",
                        spec.benchmark
                    ),
                    match untraced {
                        Some((_, o)) => expect_eq(&trace.out.rendered, &o.rendered),
                        None => Err("no untraced run to compare with".to_string()),
                    },
                );
                builds += trace.builds;
                hits += trace.hits;
                functional_insts += trace.out.total_insts;
                functional_insts += trace
                    .windows
                    .iter()
                    .map(|w| w.functional_insts)
                    .sum::<u64>();
                layers_windows.extend(trace.windows);
            }
            Err(e) => {
                eprintln!("perfbench: traced sampled {} failed: {e}", spec.benchmark);
                gates.jobs(spec.checkpoints, spec.checkpoints);
            }
        }
    }
    let stats = SpanStats::new(tracer.spans());
    let mut layers = span_layers(&stats);
    let reports: Vec<Report> = layers_windows.iter().map(|w| w.window.report).collect();
    pipeline_layers(&reports, &mut layers);
    store_layers(&store, &mut layers);
    layers.insert("workloads.builds", builds as f64);
    layers.insert("workloads.cache_hits", hits as f64);
    layers.insert(
        "stats.artifact_bytes",
        layers_windows.iter().map(|w| w.bytes as f64).sum(),
    );
    let window_ns = stats.total_ns("core.window");
    let cycles: f64 = reports.iter().map(|r| r.cycles as f64).sum();
    let committed: f64 = reports.iter().map(|r| r.committed as f64).sum();
    layers.insert("core.ns_per_cycle", window_ns / cycles.max(1.0));
    layers.insert(
        "core.ns_per_inst.cache-hit-tpbuf",
        window_ns / committed.max(1.0),
    );
    let functional_s = stats.total_ns("core.functional") / 1e9;
    layers.insert(
        "core.functional_minst_per_s",
        functional_insts as f64 / 1e6 / functional_s.max(1e-9),
    );
    traced.traced_s.push(wall);
    traced.layers.push(layers);
    traced.spans.push(stats);
}

/// The traced run: untraced rounds for half the time, then traced
/// rounds whose reports must match the untraced ones byte for byte.
pub fn traced(opts: &Options, gates: &mut Gates) -> Result<Traced, String> {
    let (specs, _) = setup(opts);
    let mut traced = Traced::default();
    let mut expected = Vec::new();
    rounds_for(opts.seconds / 2.0, usize::MAX, |r| {
        let dir = opts.work.join(format!("sampled-{r}"));
        let round = untraced_round(&specs, &dir, opts.size, gates);
        remove_dir(&dir)?;
        traced.untraced_s.push(round.wall);
        expected = round.outs;
        Ok(())
    })?;
    rounds_for(opts.seconds / 2.0, usize::MAX, |r| {
        let dir = opts.work.join(format!("sampled-traced-{r}"));
        traced_round(&specs, &dir, &expected, opts.size, gates, &mut traced);
        remove_dir(&dir)
    })?;
    Ok(traced)
}

/// Simulates each sampled program in full detail and prints its cycle
/// count: the reference `model_err_pct` compares the stitched estimate
/// against.
pub fn print_detailed_references(size: Size) {
    for benchmark in PROGRAMS {
        let spec = spec(benchmark, size);
        let program = ProgramCache::new().get_or_build(benchmark, spec.iterations);
        let mut sim = Simulator::new(spec.window_job(0).sim_config());
        let (report, t) = timed(|| sim.run_job(None, &program, u64::MAX));
        println!(
            "{benchmark}: {} cycles, {} committed ({t:.1} s)",
            report.cycles, report.committed
        );
    }
}
