//! The named sweeps: job lists for each of the paper's tables/figures,
//! plus renderers that turn a sweep's artifacts back into the published
//! table.
//!
//! Builders and renderers share the same per-benchmark job-construction
//! helpers. A [`Sweep`] records the `--iters/--warmup` scale it was
//! built with, and every renderer lookup passes the helper's job through
//! that scale before hashing, so a scaled sweep renders from the
//! artifacts of the jobs that ran. Lookups are keyed by job hash, never
//! by position, so a sweep renders the same whatever order its jobs are
//! in. A renderer tolerates missing artifacts (failed or skipped jobs)
//! by printing `-` in the affected cells rather than refusing to render
//! the rest of the table.

use crate::hash::{fnv1a64, hex16};
use crate::job::{JobSpec, MachinePreset};
use condspec::{DefenseConfig, LruPolicy};
use condspec_attacks::AttackScenario;
use condspec_stats::table::{percent, percent_value};
use condspec_stats::{arithmetic_mean, Json, TextTable};
use condspec_workloads::spec::suite;
use condspec_workloads::GadgetKind;
use std::collections::BTreeMap;

/// Artifacts keyed by job hash.
pub type SweepResults = BTreeMap<String, Json>;

/// Table VI runs a 3x larger grid; fewer iterations keep it tractable.
const TABLE6_ITERATIONS: u64 = 25;

/// A named, fully-enumerated sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Short CLI name (`fig5`, `table4`, ...).
    pub name: &'static str,
    /// Human title printed above the rendered table.
    pub title: &'static str,
    /// Every job of the sweep, in deterministic order.
    pub jobs: Vec<JobSpec>,
    /// The `(iterations, warmup)` that [`Sweep::scaled`] applied; kept
    /// private so that only scaling the jobs can set it.
    iterations: Option<u64>,
    warmup: Option<u64>,
}

impl Sweep {
    /// All sweep names, in CLI help order.
    pub const NAMES: [&'static str; 7] = [
        "fig5", "table4", "table5", "table6", "lru", "icache", "leaks",
    ];

    /// An unscaled sweep of `jobs`.
    pub fn new(name: &'static str, title: &'static str, jobs: Vec<JobSpec>) -> Sweep {
        Sweep {
            name,
            title,
            jobs,
            iterations: None,
            warmup: None,
        }
    }

    /// Builds a sweep by name.
    pub fn by_name(name: &str) -> Option<Sweep> {
        match name {
            "fig5" => Some(fig5()),
            "table4" => Some(table4()),
            "table5" => Some(table5()),
            "table6" => Some(table6()),
            "lru" => Some(lru()),
            "icache" => Some(icache()),
            "leaks" => Some(leaks()),
            _ => None,
        }
    }

    /// The content-derived sweep id: `<name>-<hash of all job hashes>`.
    /// Changing any job definition changes the id, so a new sweep
    /// generation never resumes from a stale directory.
    pub fn sweep_id(&self) -> String {
        let mut all = String::new();
        for job in &self.jobs {
            all.push_str(&job.hash_hex());
            all.push(';');
        }
        format!("{}-{}", self.name, hex16(fnv1a64(all.as_bytes())))
    }

    /// Rescales every job through [`JobSpec::scaled`] (`None` keeps the
    /// sweep's own value) and records the scale, so the manifest and
    /// the renderers see it. Scaling changes job hashes and therefore
    /// the sweep id — a scaled sweep is honestly a different
    /// computation, with its own artifacts and store entries.
    pub fn scaled(mut self, iterations: Option<u64>, warmup: Option<u64>) -> Sweep {
        self.jobs = self
            .jobs
            .into_iter()
            .map(|job| job.scaled(iterations, warmup))
            .collect();
        self.iterations = iterations.or(self.iterations);
        self.warmup = warmup.or(self.warmup);
        self
    }

    /// The measured-run and warm-up iteration counts [`Sweep::scaled`]
    /// applied (`--iters/--warmup`); `None` where unscaled.
    pub fn scale(&self) -> (Option<u64>, Option<u64>) {
        (self.iterations, self.warmup)
    }

    /// Renders the sweep's table from its artifacts.
    pub fn render(&self, results: &SweepResults) -> String {
        let artifacts = Artifacts {
            results,
            sweep: self,
        };
        let table = match self.name {
            "fig5" => render_fig5(&artifacts),
            "table4" => render_table4(&artifacts),
            "table5" => render_table5(&artifacts),
            "table6" => render_table6(&artifacts),
            "lru" => render_lru(&artifacts),
            "icache" => render_icache(&artifacts),
            "leaks" => render_leaks(&artifacts),
            _ => unreachable!("sweeps are only constructed by name"),
        };
        format!("\n{}\n\n{table}", self.title)
    }
}

// ---------------------------------------------------------------------
// Artifact accessors
// ---------------------------------------------------------------------

/// A sweep's artifacts as its renderers read them: each lookup passes
/// the job through the sweep's own scale before hashing.
struct Artifacts<'r> {
    results: &'r SweepResults,
    sweep: &'r Sweep,
}

impl Artifacts<'_> {
    fn get(&self, job: &JobSpec) -> Option<&Json> {
        let job = job.clone().scaled(self.sweep.iterations, self.sweep.warmup);
        self.results.get(&job.hash_hex())
    }

    fn report_f64(&self, job: &JobSpec, field: &str) -> Option<f64> {
        self.get(job)?.get("report")?.get(field)?.as_f64()
    }

    fn report_cycles(&self, job: &JobSpec) -> Option<f64> {
        Some(self.report_f64(job, "cycles")?.max(1.0))
    }

    fn leak_u64(&self, job: &JobSpec, field: &str) -> Option<u64> {
        self.get(job)?.get("leaks")?.get(field)?.as_u64()
    }
}

/// `x / base`, when both ran.
fn ratio(base: Option<f64>, x: Option<f64>) -> Option<f64> {
    Some(x? / base?)
}

/// The overhead of `x` over `base` in percent, when both ran.
fn overhead_pct(base: Option<f64>, x: Option<f64>) -> Option<f64> {
    ratio(base, x).map(|r| (r - 1.0) * 100.0)
}

/// A column's mean; `None` when no row of the column has data.
fn column_mean(column: &[f64]) -> Option<f64> {
    (!column.is_empty()).then(|| arithmetic_mean(column))
}

fn fmt3(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

fn fmt_pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), percent)
}

fn fmt_pct_value(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), percent_value)
}

fn fmt_signed_pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:+.2}%"))
}

fn fmt_cycles(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

fn mean_row(columns: &[Vec<f64>], fmt: impl Fn(Option<f64>) -> String) -> Vec<String> {
    let mut row = vec!["Average".to_string()];
    row.extend(columns.iter().map(|c| fmt(column_mean(c))));
    row
}

// ---------------------------------------------------------------------
// Figure 5 — normalized execution time + branch-only ablation
// ---------------------------------------------------------------------

fn fig5_jobs_for(benchmark: &'static str) -> [JobSpec; 5] {
    let mut branch_only = JobSpec::bench(benchmark, DefenseConfig::Baseline);
    branch_only.branch_only = true;
    [
        JobSpec::bench(benchmark, DefenseConfig::Origin),
        JobSpec::bench(benchmark, DefenseConfig::Baseline),
        JobSpec::bench(benchmark, DefenseConfig::CacheHit),
        JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf),
        branch_only,
    ]
}

/// Figure 5: normalized execution time of the three mechanisms plus the
/// §VI.C branch-only ablation, on the 22-benchmark suite.
pub fn fig5() -> Sweep {
    Sweep::new(
        "fig5",
        "Figure 5 — normalized execution time (Origin = 1.0)",
        suite().iter().flat_map(|s| fig5_jobs_for(s.name)).collect(),
    )
}

fn render_fig5(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
        "Branch-only Baseline (ablation)",
    ]);
    let mut columns: [Vec<f64>; 4] = Default::default();
    for spec in suite() {
        let jobs = fig5_jobs_for(spec.name);
        let origin = artifacts.report_cycles(&jobs[0]);
        let mut cells = vec![spec.name.to_string()];
        for (col, job) in columns.iter_mut().zip(&jobs[1..]) {
            let norm = ratio(origin, artifacts.report_cycles(job));
            if let Some(v) = norm {
                col.push(v);
            }
            cells.push(fmt3(norm));
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt3));
    format!(
        "{table}\npaper reference: Baseline avg 1.536, Cache-hit avg 1.128, \
         Cache-hit+TPBuf avg 1.068, branch-only Baseline avg 1.230\n"
    )
}

// ---------------------------------------------------------------------
// Table IV — security analysis
// ---------------------------------------------------------------------

const TABLE4_VARIANTS: [GadgetKind; 4] = [
    GadgetKind::V1,
    GadgetKind::V2,
    GadgetKind::V4,
    GadgetKind::Rsb,
];

/// Table IV: every attack scenario and Spectre variant against every
/// defense environment.
pub fn table4() -> Sweep {
    let mut jobs = Vec::new();
    for scenario in AttackScenario::ALL {
        for defense in DefenseConfig::ALL {
            jobs.push(JobSpec::attack(scenario, defense));
        }
    }
    for kind in TABLE4_VARIANTS {
        for defense in DefenseConfig::ALL {
            jobs.push(JobSpec::variant(kind, defense));
        }
    }
    Sweep::new(
        "table4",
        "Table IV — defended? (per mechanism, measured by end-to-end attack)",
        jobs,
    )
}

fn render_table4(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Attack Classification",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
        "matches paper",
    ]);
    let mut all_match = true;
    for scenario in AttackScenario::ALL {
        let mut cells = vec![scenario.label().to_string()];
        let mut row_matches = Some(true);
        for defense in DefenseConfig::ALL {
            let job = JobSpec::attack(scenario, defense);
            match artifacts.get(&job) {
                Some(doc) => {
                    let defended = doc.get("defended").and_then(Json::as_bool).unwrap_or(false);
                    let matches = doc
                        .get("matches_paper")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    row_matches = row_matches.map(|m| m && matches);
                    cells.push(if defended { "yes" } else { "NO" }.to_string());
                }
                None => {
                    row_matches = None;
                    cells.push("-".to_string());
                }
            }
        }
        cells.push(match row_matches {
            Some(true) => "yes".to_string(),
            Some(false) => {
                all_match = false;
                "MISMATCH".to_string()
            }
            None => "-".to_string(),
        });
        table.row(cells);
    }
    let mut out = format!(
        "{table}\nexpected (paper): Baseline and Cache-hit defend all six; \
         Cache-hit+TPBuf defends the four shared-memory rows only.\n\
         all cells match Table IV: {}\n",
        if all_match { "YES" } else { "NO" }
    );

    let mut variants = TextTable::with_columns(&[
        "Spectre variant",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
    ]);
    for kind in TABLE4_VARIANTS {
        let mut cells = vec![kind.key().to_string()];
        for defense in DefenseConfig::ALL {
            let job = JobSpec::variant(kind, defense);
            cells.push(
                match artifacts.get(&job).and_then(|d| d.get("leaked")?.as_bool()) {
                    Some(true) => "LEAKS".to_string(),
                    Some(false) => "blocked".to_string(),
                    None => "-".to_string(),
                },
            );
        }
        variants.row(cells);
    }
    out.push_str(&format!(
        "\nPer-variant analysis (Flush+Reload channel; rsb = SpectreRSB/ret2spec):\n\n{variants}"
    ));
    out
}

// ---------------------------------------------------------------------
// Table V — filter analysis
// ---------------------------------------------------------------------

fn table5_jobs_for(benchmark: &'static str) -> [JobSpec; 4] {
    [
        JobSpec::bench(benchmark, DefenseConfig::Origin),
        JobSpec::bench(benchmark, DefenseConfig::Baseline),
        JobSpec::bench(benchmark, DefenseConfig::CacheHit),
        JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf),
    ]
}

/// Table V: per-benchmark filter analysis (blocked rates, suspect hit
/// rate, S-Pattern mismatch rate).
pub fn table5() -> Sweep {
    Sweep::new(
        "table5",
        "Table V — filter analysis",
        suite()
            .iter()
            .flat_map(|s| table5_jobs_for(s.name))
            .collect(),
    )
}

fn render_table5(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "L1 Hit Rate",
        "BL Blocked",
        "CH Blocked",
        "CH SpecHitRate",
        "TPBuf Blocked",
        "S-Mismatch",
    ]);
    let mut columns: [Vec<f64>; 6] = Default::default();
    for spec in suite() {
        let [origin, baseline, cachehit, tpbuf] = table5_jobs_for(spec.name);
        let values = [
            artifacts.report_f64(&origin, "l1d_hit_rate"),
            artifacts.report_f64(&baseline, "blocked_rate"),
            artifacts.report_f64(&cachehit, "blocked_rate"),
            artifacts.report_f64(&cachehit, "suspect_hit_rate"),
            artifacts.report_f64(&tpbuf, "blocked_rate"),
            artifacts.report_f64(&tpbuf, "s_pattern_mismatch_rate"),
        ];
        let mut cells = vec![spec.name.to_string()];
        for (col, v) in columns.iter_mut().zip(values) {
            if let Some(v) = v {
                col.push(v);
            }
            cells.push(fmt_pct(v));
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt_pct));
    format!(
        "{table}\npaper reference averages: L1 hit 88.7%, Baseline blocked 73.6%, \
         Cache-hit blocked 3.6%, suspect hit rate 89.6%, TPBuf blocked 1.7%, \
         S-Pattern mismatch 18.2%\n"
    )
}

// ---------------------------------------------------------------------
// Table VI — sensitivity to core complexity
// ---------------------------------------------------------------------

fn table6_jobs_for(benchmark: &'static str, preset: MachinePreset) -> [JobSpec; 4] {
    table5_jobs_for(benchmark).map(|job| JobSpec {
        machine: preset,
        ..job.scaled(Some(TABLE6_ITERATIONS), None)
    })
}

/// Table VI: overhead of the three mechanisms on A57-like, I7-like and
/// Xeon-like machines.
pub fn table6() -> Sweep {
    let mut jobs = Vec::new();
    for spec in suite() {
        for preset in MachinePreset::SENSITIVITY {
            jobs.extend(table6_jobs_for(spec.name, preset));
        }
    }
    Sweep::new(
        "table6",
        "Table VI — performance overhead (%) by core complexity",
        jobs,
    )
}

fn render_table6(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "A57 BL",
        "A57 CH",
        "A57 TPBuf",
        "I7 BL",
        "I7 CH",
        "I7 TPBuf",
        "Xeon BL",
        "Xeon CH",
        "Xeon TPBuf",
    ]);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for spec in suite() {
        let mut cells = vec![spec.name.to_string()];
        let mut idx = 0;
        for preset in MachinePreset::SENSITIVITY {
            let jobs = table6_jobs_for(spec.name, preset);
            let origin = artifacts.report_cycles(&jobs[0]);
            for job in &jobs[1..] {
                let overhead = overhead_pct(origin, artifacts.report_cycles(job));
                if let Some(v) = overhead {
                    columns[idx].push(v);
                }
                idx += 1;
                cells.push(fmt_pct_value(overhead));
            }
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt_pct_value));
    format!(
        "{table}\npaper reference averages: A57 41.1/11.0/6.0, I7 46.3/15.1/9.0, \
         Xeon 51.4/15.9/9.6 (%)\n\
         expected shape: the same mechanism ordering on every platform, \
         with overheads growing with core complexity.\n"
    )
}

// ---------------------------------------------------------------------
// §VII.A — secure LRU update policies
// ---------------------------------------------------------------------

fn lru_jobs_for(benchmark: &'static str) -> [JobSpec; 3] {
    [LruPolicy::Update, LruPolicy::NoUpdate, LruPolicy::Delayed].map(|policy| {
        let mut job = JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf);
        job.lru = policy;
        job
    })
}

/// §VII.A: the no-update and delayed-update secure LRU policies on top
/// of Cache-hit + TPBuf.
pub fn lru() -> Sweep {
    Sweep::new(
        "lru",
        "Section VII.A — secure LRU update policies (on Cache-hit + TPBuf)",
        suite().iter().flat_map(|s| lru_jobs_for(s.name)).collect(),
    )
}

fn render_lru(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "Normal LRU (cycles)",
        "No-update vs normal",
        "Delayed vs normal",
        "Delayed recovers",
    ]);
    let mut columns: [Vec<f64>; 2] = Default::default();
    for spec in suite() {
        let [normal, none, delayed] = lru_jobs_for(spec.name);
        let base = artifacts.report_cycles(&normal);
        let none_overhead = overhead_pct(base, artifacts.report_cycles(&none));
        let delayed_overhead = overhead_pct(base, artifacts.report_cycles(&delayed));
        if let (Some(n), Some(d)) = (none_overhead, delayed_overhead) {
            columns[0].push(n);
            columns[1].push(d);
        }
        table.row(vec![
            spec.name.to_string(),
            fmt_cycles(base),
            fmt_signed_pct(none_overhead),
            fmt_signed_pct(delayed_overhead),
            fmt_signed_pct(none_overhead.zip(delayed_overhead).map(|(n, d)| n - d)),
        ]);
    }
    let [avg_none, avg_delayed] = columns.each_ref().map(|c| column_mean(c));
    table.row(vec![
        "Average".to_string(),
        "-".to_string(),
        fmt_signed_pct(avg_none),
        fmt_signed_pct(avg_delayed),
        fmt_signed_pct(avg_none.zip(avg_delayed).map(|(n, d)| n - d)),
    ]);
    format!(
        "{table}\npaper reference: no-update costs +0.71% on average; \
         delayed update recovers 0.26% of it.\n"
    )
}

// ---------------------------------------------------------------------
// §VII.B — ICache-hit filter
// ---------------------------------------------------------------------

fn icache_jobs_for(benchmark: &'static str) -> [JobSpec; 2] {
    let base = JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf);
    let mut filtered = base.clone();
    filtered.icache_filter = true;
    [base, filtered]
}

/// §VII.B: the ICache-hit filter stacked on Cache-hit + TPBuf.
pub fn icache() -> Sweep {
    Sweep::new(
        "icache",
        "Section VII.B — ICache-hit filter on top of Cache-hit + TPBuf",
        suite()
            .iter()
            .flat_map(|s| icache_jobs_for(s.name))
            .collect(),
    )
}

fn render_icache(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "CS+TPBuf (cycles)",
        "+ICache filter",
        "overhead",
        "fetch stalls",
    ]);
    let mut overheads = Vec::new();
    for spec in suite() {
        let [base, filtered] = icache_jobs_for(spec.name);
        let base_cycles = artifacts.report_cycles(&base);
        let filtered_cycles = artifacts.report_cycles(&filtered);
        let overhead = overhead_pct(base_cycles, filtered_cycles);
        if let Some(v) = overhead {
            overheads.push(v);
        }
        let stalls = artifacts
            .get(&filtered)
            .and_then(|d| d.get("icache_fetch_stalls")?.as_u64());
        table.row(vec![
            spec.name.to_string(),
            fmt_cycles(base_cycles),
            fmt_cycles(filtered_cycles),
            fmt_signed_pct(overhead),
            stalls.map_or_else(|| "-".to_string(), |v| v.to_string()),
        ]);
    }
    table.row(vec![
        "Average".to_string(),
        "-".to_string(),
        "-".to_string(),
        fmt_signed_pct(column_mean(&overheads)),
        "-".to_string(),
    ]);
    format!(
        "{table}\nThe paper proposes this extension without evaluating it; the \
         expectation is a small overhead because instruction working sets \
         are L1I-resident, with stalls concentrated at mispredicted \
         branches whose wrong-path code is cold.\n"
    )
}

// ---------------------------------------------------------------------
// Leak matrix — taint-oracle information-flow verdicts
// ---------------------------------------------------------------------

/// The taint-oracle leak matrix: every Table IV Spectre variant probed
/// under every defense, with the verdict coming from information flow
/// inside the pipeline instead of an attacker's channel readout.
pub fn leaks() -> Sweep {
    let mut jobs = Vec::new();
    for kind in TABLE4_VARIANTS {
        for defense in DefenseConfig::ALL {
            jobs.push(JobSpec::leak_probe(kind, defense));
        }
    }
    Sweep::new(
        "leaks",
        "Leak matrix — squash-surviving taint flows per defense (taint oracle)",
        jobs,
    )
}

fn render_leaks(artifacts: &Artifacts) -> String {
    let mut table = TextTable::with_columns(&[
        "Gadget",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
    ]);
    let mut claim_holds = Some(true);
    for kind in TABLE4_VARIANTS {
        let mut cells = vec![kind.key().to_string()];
        for defense in DefenseConfig::ALL {
            let job = JobSpec::leak_probe(kind, defense);
            let survived = artifacts
                .leak_u64(&job, "cache_fills_survived")
                .zip(artifacts.leak_u64(&job, "cache_lru_survived"))
                .map(|(f, l)| f + l);
            cells.push(match survived {
                Some(0) => "clean".to_string(),
                Some(n) => "LEAKS".to_string() + &format!("({n})"),
                None => "-".to_string(),
            });
            let expected_leak = defense == DefenseConfig::Origin;
            claim_holds = match (claim_holds, survived) {
                (Some(ok), Some(n)) => Some(ok && ((n > 0) == expected_leak)),
                _ => None,
            };
        }
        table.row(cells);
    }

    let mut blind = TextTable::with_columns(&[
        "Gadget",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
    ]);
    for kind in TABLE4_VARIANTS {
        let mut cells = vec![kind.key().to_string()];
        for defense in DefenseConfig::ALL {
            let job = JobSpec::leak_probe(kind, defense);
            let tlb = artifacts.leak_u64(&job, "tlb_fills_survived");
            let tpbuf = artifacts.leak_u64(&job, "tpbuf_inserts_survived");
            cells.push(match (tlb, tpbuf) {
                (Some(t), Some(p)) => format!("tlb:{t} tpbuf:{p}"),
                _ => "-".to_string(),
            });
        }
        blind.row(cells);
    }

    format!(
        "{table}\nsecurity claim (cache channels: Origin leaks on every gadget, \
         every defense on none): {}\n\n\
         Blind spots — squash-surviving non-cache flows the paper's threat \
         model does not cover (TLB fills, TPBuf training):\n\n{blind}\n\
         A tlb count > 0 under a defense means the blocked load had already \
         translated its secret-dependent address; the defenses filter the \
         cache, not the TLB.\n",
        match claim_holds {
            Some(true) => "REPRODUCED",
            Some(false) => "VIOLATED",
            None => "incomplete",
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;

    #[test]
    fn sweeps_have_expected_sizes() {
        assert_eq!(fig5().jobs.len(), 22 * 5);
        assert_eq!(table4().jobs.len(), 6 * 4 + 4 * 4);
        assert_eq!(table5().jobs.len(), 22 * 4);
        assert_eq!(table6().jobs.len(), 22 * 3 * 4);
        assert_eq!(lru().jobs.len(), 22 * 3);
        assert_eq!(icache().jobs.len(), 22 * 2);
        assert_eq!(leaks().jobs.len(), 4 * 4);
    }

    #[test]
    fn fig5_needs_one_program_build_per_benchmark_and_iteration_count() {
        // Every fig5 job on a benchmark shares the same warm-up and
        // measured programs, so the sweep's program cache should build
        // 22 benchmarks x {warmup, measured} = 44 programs and serve
        // the remaining 110*2 - 44 requests as hits.
        let mut keys: Vec<(&'static str, u64)> = fig5()
            .jobs
            .iter()
            .flat_map(|job| match &job.workload {
                Workload::Bench {
                    benchmark,
                    iterations,
                    warmup,
                } => vec![(*benchmark, *warmup), (*benchmark, *iterations)],
                _ => vec![],
            })
            .collect();
        assert_eq!(keys.len(), 110 * 2, "every fig5 job is a benchmark");
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 22 * 2, "distinct programs a fig5 run builds");
    }

    #[test]
    fn job_hashes_are_unique_within_each_sweep() {
        for name in Sweep::NAMES {
            let sweep = Sweep::by_name(name).expect("known sweep");
            let mut hashes: Vec<String> = sweep.jobs.iter().map(JobSpec::hash_hex).collect();
            hashes.sort();
            let before = hashes.len();
            hashes.dedup();
            assert_eq!(hashes.len(), before, "duplicate job in sweep {name}");
        }
    }

    #[test]
    fn sweep_ids_are_deterministic_and_distinct() {
        assert_eq!(fig5().sweep_id(), fig5().sweep_id());
        let ids: Vec<String> = Sweep::NAMES
            .iter()
            .map(|n| Sweep::by_name(n).expect("known").sweep_id())
            .collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    /// The cells of the rendered table's `Average` row, if it has one.
    fn average_row(rendered: &str) -> Option<Vec<String>> {
        let line = rendered.lines().find(|l| l.starts_with("Average"))?;
        Some(
            line.split_whitespace()
                .skip(1)
                .map(str::to_string)
                .collect(),
        )
    }

    #[test]
    fn rendering_tolerates_missing_artifacts() {
        let mut averaged = 0;
        for name in Sweep::NAMES {
            let sweep = Sweep::by_name(name).expect("known sweep");
            let rendered = sweep.render(&SweepResults::new());
            assert!(rendered.contains('-'), "{name} renders placeholders");
            if let Some(cells) = average_row(&rendered) {
                averaged += 1;
                assert!(
                    cells.iter().all(|c| c == "-"),
                    "{name}: an empty column averages to `-`, got {cells:?}"
                );
            }
        }
        assert_eq!(averaged, 5, "fig5, table5, table6, lru and icache average");
    }

    /// The Figure 5 column of a job (0 = Origin), and its benchmark's
    /// suite index.
    fn fig5_cell(job: &JobSpec) -> (usize, usize) {
        let Workload::Bench { benchmark, .. } = &job.workload else {
            panic!("fig5 runs benchmarks only");
        };
        let row = suite().iter().position(|s| s.name == *benchmark);
        let col = match (job.branch_only, job.defense) {
            (true, _) => 4,
            (false, DefenseConfig::Origin) => 0,
            (false, DefenseConfig::Baseline) => 1,
            (false, DefenseConfig::CacheHit) => 2,
            (false, DefenseConfig::CacheHitTpbuf) => 3,
        };
        (row.expect("suite benchmark"), col)
    }

    /// Synthetic cycles of a Figure 5 cell.
    fn fig5_cycles(row: usize, col: usize) -> f64 {
        (1000 + 37 * row) as f64 * (1.0 + 0.05 * col as f64 * (1 + row % 3) as f64)
    }

    /// A fig5 scaled down, with a synthetic artifact under each of its
    /// own job hashes.
    fn scaled_fig5_with_artifacts() -> (Sweep, SweepResults) {
        let sweep = fig5().scaled(Some(2), Some(1));
        let results = sweep
            .jobs
            .iter()
            .map(|job| {
                let (row, col) = fig5_cell(job);
                let report = Json::object(vec![("cycles", Json::from(fig5_cycles(row, col)))]);
                (job.hash_hex(), Json::object(vec![("report", report)]))
            })
            .collect();
        (sweep, results)
    }

    #[test]
    fn scaled_fig5_renders_from_its_own_artifacts() {
        let (sweep, results) = scaled_fig5_with_artifacts();
        let rendered = sweep.render(&results);
        let expected: Vec<String> = (1..5)
            .map(|col| {
                let norms: Vec<f64> = (0..suite().len())
                    .map(|row| fig5_cycles(row, col) / fig5_cycles(row, 0))
                    .collect();
                format!("{:.3}", arithmetic_mean(&norms))
            })
            .collect();
        assert_eq!(average_row(&rendered), Some(expected), "{rendered}");
        assert!(
            rendered.split_whitespace().all(|cell| cell != "-"),
            "every cell of a complete scaled sweep has a number:\n{rendered}"
        );
        // The unscaled sweep names other jobs, so it finds none of them.
        assert_eq!(
            average_row(&fig5().render(&results)),
            Some(vec!["-".to_string(); 4])
        );
    }

    #[test]
    fn rendering_ignores_job_order() {
        let (sweep, results) = scaled_fig5_with_artifacts();
        let mut permuted = sweep.clone();
        permuted.jobs.reverse();
        permuted.jobs.rotate_left(7);
        assert_eq!(sweep.render(&results), permuted.render(&results));
    }

    #[test]
    fn scaling_rewrites_window_jobs_and_rehashes() {
        let sweep = Sweep::new(
            "windows",
            "window jobs",
            vec![JobSpec::bench_window("gcc", DefenseConfig::Origin, 1)],
        );
        let base_id = sweep.sweep_id();
        let scaled = sweep.scaled(Some(3), Some(1));
        assert_ne!(base_id, scaled.sweep_id(), "window jobs re-hash");
        let Workload::BenchWindow { iterations, .. } = &scaled.jobs[0].workload else {
            panic!("workload kind must survive scaling");
        };
        assert_eq!(*iterations, 3);
    }

    #[test]
    fn unknown_sweep_is_rejected() {
        assert!(Sweep::by_name("fig9").is_none());
    }

    #[test]
    fn scaling_rewrites_bench_iterations_and_the_sweep_id() {
        let base = icache();
        let scaled = icache().scaled(Some(2), Some(1));
        assert_ne!(base.sweep_id(), scaled.sweep_id(), "a scaled sweep is new");
        assert_eq!(scaled.scale(), (Some(2), Some(1)));
        // Scaling twice composes: each call keeps what the other set.
        let twice = icache().scaled(Some(2), None).scaled(None, Some(1));
        assert_eq!(twice.sweep_id(), scaled.sweep_id());
        assert_eq!(twice.scale(), (Some(2), Some(1)));
        for job in &scaled.jobs {
            if let Workload::Bench {
                iterations, warmup, ..
            } = &job.workload
            {
                assert_eq!((*iterations, *warmup), (2, 1));
            }
        }
        // Attack jobs are untouched, so table4 keeps its id.
        assert_eq!(
            table4().sweep_id(),
            table4().scaled(Some(2), Some(1)).sweep_id()
        );
        // `None` keeps the sweep's own counts.
        assert_eq!(base.sweep_id(), icache().scaled(None, None).sweep_id());
    }
}
