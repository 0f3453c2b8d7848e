//! The repository benchmark: two workloads driven through the sweep
//! engine's public entry points, each checked for correct output, with
//! a separate traced run that splits the time by layer.
//!
//! See `README.md` in this directory for the workloads, every metric's
//! unit and layer, and which end-to-end figure each layer should move.

pub mod fig5;
pub mod host;
pub mod reference;
pub mod sampled;
pub mod sha256;
pub mod trace;

use condspec::Report;
use condspec_engine::SweepResults;
use condspec_stats::{Json, SplitMix64};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::{SpanStats, Tracer};

/// Worker threads every workload runs with.
pub const WORKERS: usize = 2;

/// End-to-end metrics, printed by every untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("jobs_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("model_err_pct", "%"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.build_ms", "ms"),
    ("workloads.builds", "count"),
    ("workloads.cache_hits", "count"),
    ("workloads.self_ms", "ms"),
    ("core.run_job_ms", "ms"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_inst.origin", "ns"),
    ("core.ns_per_inst.baseline", "ns"),
    ("core.ns_per_inst.cache-hit", "ns"),
    ("core.ns_per_inst.cache-hit-tpbuf", "ns"),
    ("core.ns_per_inst.branch-only", "ns"),
    ("core.functional_minst_per_s", "Minst/s"),
    ("core.functional_ms", "ms"),
    ("core.checkpoint_capture_us", "us"),
    ("core.checkpoint_restore_us", "us"),
    ("core.window_ms", "ms"),
    ("core.stitch_us", "us"),
    ("core.self_ms", "ms"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.committed", "count"),
    ("pipeline.squashed_insts", "count"),
    ("pipeline.useful_ratio", "ratio"),
    ("pipeline.block_events", "count"),
    ("pipeline.mispredict_squashes", "count"),
    ("mem.l1d_hit_rate", "ratio"),
    ("frontend.branch_accuracy", "ratio"),
    ("stats.render_us", "us"),
    ("stats.parse_us", "us"),
    ("stats.artifact_bytes", "bytes"),
    ("stats.self_ms", "ms"),
    ("engine.utilization", "ratio"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.artifact_write_us", "us"),
    ("engine.manifest_write_ms", "ms"),
    ("engine.render_ms", "ms"),
    ("store.insert_us", "us"),
    ("store.load_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.inserts", "count"),
    ("store.corrupt", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.self_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full Figure 5 sweep from an empty store and run directory.
    Fig5Cold,
    /// Long sampled runs of mcf, lbm and gcc under Cache-hit+TPBuf.
    SampledLong,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Fig5Cold, Workload::SampledLong];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Cold => "fig5-cold",
            Workload::SampledLong => "sampled-long",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long inputs with their own recorded references.
    Small,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Permutes job submission order (never the simulated outputs).
    pub seed: u64,
    /// How long the timed phase runs; at least one round always runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for run directories and stores; removed by the
    /// caller afterwards.
    pub work: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs and correctness checks attempted.
    pub attempted: u64,
    /// Jobs and correctness checks that failed.
    pub failed: u64,
    /// Timed rounds run (untraced plus traced).
    pub rounds: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans, for writing out.
    pub spans: Option<Json>,
}

impl Outcome {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::object(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::object(vec![
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
    }
}

/// Counts jobs and correctness checks; a failed check is reported on
/// stderr and counted, never a crash.
#[derive(Debug, Default)]
pub struct Gates {
    /// Jobs and checks attempted.
    pub attempted: u64,
    /// Jobs and checks failed.
    pub failed: u64,
}

impl Gates {
    /// Records one check.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }

    /// Records `attempted` jobs of which `failed` failed.
    pub fn jobs(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {attempted} jobs failed");
        }
    }
}

/// `Ok` when `actual == expected`, else an error naming both.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(actual: T, expected: T) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("got {actual:?}, expected {expected:?}"))
    }
}

/// What a workload's untraced rounds measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed round.
    pub round_s: Vec<f64>,
    /// Instructions whose timing one round reports.
    pub insts_per_round: u64,
    /// Engine jobs one round resolves.
    pub jobs_per_round: u64,
    /// Per-unit latencies in ms of each round (the unit is
    /// workload-specific).
    pub unit_ms: Vec<Vec<f64>>,
    /// Peak resident set in MiB of each round.
    pub peak_rss_mb: Vec<f64>,
    /// The model's error against its reference, in percent.
    pub model_err_pct: f64,
}

/// What a workload's traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Seconds of each untraced round run for comparison.
    pub untraced_s: Vec<f64>,
    /// Seconds of each traced round.
    pub traced_s: Vec<f64>,
    /// Per-layer values of each traced round.
    pub layers: Vec<BTreeMap<&'static str, f64>>,
    /// Spans of each traced round.
    pub spans: Vec<SpanStats>,
}

/// Runs one invocation.
///
/// # Errors
///
/// Fails when the work directory cannot be used or a workload cannot
/// run at all; wrong outputs are counted as failed checks instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
    let mut gates = Gates::default();
    if opts.trace {
        let traced = match opts.workload {
            Workload::Fig5Cold => fig5::traced(opts, &mut gates)?,
            Workload::SampledLong => sampled::traced(opts, &mut gates)?,
        };
        let rounds = traced.untraced_s.len() + traced.traced_s.len();
        let spans = trace::spans_json(&traced.spans);
        Ok(Outcome {
            attempted: gates.attempted,
            failed: gates.failed,
            rounds,
            metrics: per_layer_metrics(&traced),
            spans: Some(spans),
        })
    } else {
        let e2e = match opts.workload {
            Workload::Fig5Cold => fig5::end_to_end(opts, &mut gates)?,
            Workload::SampledLong => sampled::end_to_end(opts, &mut gates)?,
        };
        let ok_ratio = 1.0 - gates.failed as f64 / gates.attempted.max(1) as f64;
        Ok(Outcome {
            attempted: gates.attempted,
            failed: gates.failed,
            rounds: e2e.round_s.len(),
            metrics: end_to_end_metrics(&e2e, ok_ratio),
            spans: None,
        })
    }
}

fn end_to_end_metrics(e2e: &EndToEnd, ok_ratio: f64) -> Vec<Metric> {
    let wall = median(&e2e.round_s);
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&e2e.setup_s),
            "wall_s" => wall,
            "minst_per_s" => e2e.insts_per_round as f64 / 1e6 / wall,
            "jobs_per_s" => e2e.jobs_per_round as f64 / wall,
            "unit_ms_p50" => round_median(&e2e.unit_ms, 0.5),
            "unit_ms_p90" => round_median(&e2e.unit_ms, 0.9),
            "peak_rss_mb" => median(&e2e.peak_rss_mb),
            "ok_ratio" => ok_ratio,
            "model_err_pct" => e2e.model_err_pct,
            _ => unreachable!("END_TO_END lists only the names above"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

fn per_layer_metrics(traced: &Traced) -> Vec<Metric> {
    let untraced = median(&traced.untraced_s);
    let wall = median(&traced.traced_s);
    let spans: usize = traced.spans.iter().map(|s| s.spans().len()).sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.wall_s" => wall,
                "trace.untraced_wall_s" => untraced,
                "trace.overhead_s" => wall - untraced,
                "trace.spans" => spans as f64,
                _ => {
                    let per_round: Vec<f64> = traced
                        .layers
                        .iter()
                        .map(|l| l.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&per_round)
                }
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Per-layer values every traced round derives from its spans alone.
pub fn span_layers(stats: &SpanStats) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert(
        "workloads.build_ms",
        stats.total_ns("workloads.get_or_build") / 1e6,
    );
    m.insert("core.run_job_ms", stats.total_ns("core.run_job") / 1e6);
    m.insert(
        "core.functional_ms",
        stats.total_ns("core.functional") / 1e6,
    );
    m.insert(
        "core.checkpoint_capture_us",
        stats.mean_ns("core.checkpoint_capture") / 1e3,
    );
    m.insert(
        "core.checkpoint_restore_us",
        stats.mean_ns("core.checkpoint_restore") / 1e3,
    );
    m.insert(
        "core.window_ms",
        quantile(&stats.durations("core.window"), 0.5) / 1e6,
    );
    m.insert("core.stitch_us", stats.mean_ns("core.stitch") / 1e3);
    m.insert("stats.render_us", stats.mean_ns("stats.render") / 1e3);
    m.insert("stats.parse_us", stats.mean_ns("stats.parse") / 1e3);
    m.insert(
        "engine.artifact_write_us",
        stats.mean_ns("engine.artifact_write") / 1e3,
    );
    m.insert(
        "engine.manifest_write_ms",
        stats.total_ns("engine.manifest_write") / 1e6,
    );
    m.insert("engine.render_ms", stats.total_ns("engine.render") / 1e6);
    m.insert("store.insert_us", stats.mean_ns("store.insert") / 1e3);
    m.insert("store.load_us", stats.mean_ns("store.load") / 1e3);
    let (utilization, wait_ms) = stats.pool_figures(WORKERS);
    m.insert("engine.utilization", utilization);
    m.insert("engine.queue_wait_ms", wait_ms);
    for (layer, ns) in stats.self_ns_by_layer() {
        let name = match layer {
            "engine" => "engine.self_ms",
            "core" => "core.self_ms",
            "store" => "store.self_ms",
            "stats" => "stats.self_ms",
            "workloads" => "workloads.self_ms",
            _ => continue,
        };
        m.insert(name, ns / 1e6);
    }
    m
}

/// Exact pipeline counts summed over `reports`, with rates weighted by
/// committed instructions.
pub fn pipeline_layers(reports: &[Report], m: &mut BTreeMap<&'static str, f64>) {
    let sum = |f: fn(&Report) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let committed = sum(|r| r.committed);
    let squashed = sum(|r| r.squashed_insts);
    let weighted = |f: fn(&Report) -> f64| {
        reports
            .iter()
            .map(|r| f(r) * r.committed as f64)
            .sum::<f64>()
            / committed.max(1.0)
    };
    m.insert("pipeline.sim_cycles", sum(|r| r.cycles));
    m.insert("pipeline.committed", committed);
    m.insert("pipeline.squashed_insts", squashed);
    m.insert(
        "pipeline.useful_ratio",
        committed / (committed + squashed).max(1.0),
    );
    m.insert("pipeline.block_events", sum(|r| r.block_events));
    m.insert(
        "pipeline.mispredict_squashes",
        sum(|r| r.mispredict_squashes),
    );
    m.insert("mem.l1d_hit_rate", weighted(|r| r.l1d_hit_rate));
    m.insert("frontend.branch_accuracy", weighted(|r| r.branch_accuracy));
}

/// Store counters of one round.
pub fn store_layers(store: &condspec_store::ResultStore, m: &mut BTreeMap<&'static str, f64>) {
    let (hits, misses) = (store.hits() as f64, store.misses() as f64);
    m.insert("store.hits", hits);
    m.insert("store.misses", misses);
    m.insert("store.inserts", store.inserts() as f64);
    m.insert("store.corrupt", store.corrupt() as f64);
    m.insert("store.hit_ratio", hits / (hits + misses).max(1.0));
}

/// Shuffles `items` with a Fisher–Yates pass driven by `seed`.
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0, i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over rounds of each round's `q` quantile, so that one
/// slow round moves it no more than it moves `wall_s` (0 for none).
pub fn round_median(rounds: &[Vec<f64>], q: f64) -> f64 {
    let per_round: Vec<f64> = rounds.iter().map(|r| quantile(r, q)).collect();
    median(&per_round)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` and returns the peak resident set in MiB while it ran. The
/// high-water mark is reset first (`5` to `/proc/self/clear_refs`), so a
/// round's peak does not carry over from an earlier round; where the
/// kernel refuses the reset, the peak is the process's since it started.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = f();
    (out, peak_rss_mb())
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The job artifacts of a sweep directory, sorted by file name:
/// every `*.json` except the manifest and the telemetry sidecar.
pub fn artifact_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") && name != "manifest.json" && name != "telemetry.json" {
            let bytes = std::fs::read(entry.path()).map_err(|e| format!("{name}: {e}"))?;
            files.push((name, bytes));
        }
    }
    files.sort();
    Ok(files)
}

/// The SHA-256 of the concatenated artifacts, in file-name order.
pub fn artifacts_digest(files: &[(String, Vec<u8>)]) -> String {
    let mut h = sha256::Sha256::default();
    for (_, bytes) in files {
        h.update(bytes);
    }
    h.hex()
}

/// `Ok` when two artifact sets are byte-identical.
pub fn same_artifacts(a: &[(String, Vec<u8>)], b: &[(String, Vec<u8>)]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} artifacts vs {}", a.len(), b.len()));
    }
    for ((na, ba), (nb, bb)) in a.iter().zip(b) {
        if na != nb {
            return Err(format!("artifact {na} vs {nb}"));
        }
        if ba != bb {
            return Err(format!("artifact {na} differs"));
        }
    }
    Ok(())
}

/// The simulated-cycle and committed-instruction sums of every
/// artifact that carries a report.
pub fn report_sums(results: &SweepResults) -> (u64, u64) {
    results
        .values()
        .filter_map(|doc| doc.get("report"))
        .fold((0, 0), |(c, i), r| {
            (
                c + r.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                i + r.get("committed").and_then(Json::as_u64).unwrap_or(0),
            )
        })
}

/// Runs `jobs` indices on [`WORKERS`] threads under an `engine.pool`
/// span, each in an `engine.job` span; `init` builds per-worker state.
/// Returns results in index order.
pub fn traced_pool<W, T: Send>(
    tracer: &Tracer,
    parent: Option<usize>,
    jobs: usize,
    init: impl Fn() -> W + Sync,
    run: impl Fn(usize, &mut W, usize) -> T + Sync,
) -> Vec<T> {
    tracer.span("engine.pool", parent, None, |pool| {
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..WORKERS.min(jobs.max(1)) {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs {
                            break;
                        }
                        let out =
                            tracer.span("engine.job", Some(pool), Some(index as u64), |job| {
                                run(index, &mut state, job)
                            });
                        results.lock().expect("no result holder panics")[index] = Some(out);
                    }
                });
            }
        });
        results
            .into_inner()
            .expect("no result holder panics")
            .into_iter()
            .map(|r| r.expect("every index runs once"))
            .collect()
    })
}

/// Writes `text` to `path` the way the engine writes artifacts: a
/// unique temporary file renamed into place.
pub fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("perfbench.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs rounds of `round` while another round of the mean length so far
/// still fits in `seconds` (at least one round, at most `max_rounds`),
/// collecting their outputs.
pub fn rounds_for<T>(
    seconds: f64,
    max_rounds: usize,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(round(out.len())?);
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / out.len() as f64;
        if next_end > seconds || out.len() >= max_rounds {
            return Ok(out);
        }
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_dir(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_round_does_not_fill_the_tail() {
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v * 3.0).collect();
        let rounds = vec![fast.clone(), slow, fast.clone()];
        assert_eq!(round_median(&rounds, 0.9), quantile(&fast, 0.9));
        assert!(quantile(&rounds.concat(), 0.9) > 2.0 * quantile(&fast, 0.9));
        assert_eq!(round_median(&[], 0.5), 0.0);
    }
}
