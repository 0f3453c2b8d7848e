//! Hand-rolled argument parsing for the `condspec` command-line driver
//! (kept dependency-free). Names of defenses, scenarios, gadgets and
//! machines are looked up in their owning crates' `from_key` tables.

use condspec::{DefenseConfig, MachineConfig};
use condspec_attacks::AttackScenario;
use condspec_bench::perf::CellFilter;
use condspec_engine::MachinePreset;
use condspec_workloads::GadgetKind;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Output format for `condspec trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable event lines (default).
    Text,
    /// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
    Perfetto,
}

/// Simulation mode for `condspec run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Cycle-accurate out-of-order pipeline (default).
    Detailed,
    /// Architectural-only execution: no IQ/LSQ/ROB/cache modelling,
    /// two orders of magnitude faster — the sampled-run fast-forward.
    Functional,
    /// SimPoint-style sampling: functional fast-forward to evenly
    /// spaced checkpoints, a detailed window at each, weighted stitch.
    Sampled,
}

/// Output format for `condspec timeseries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// JSON document with run parameters, sampled rows and final metrics.
    Json,
    /// Sampled rows as CSV with a header line.
    Csv,
}

/// Maintenance action for `condspec store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Entry/byte/stray-temp counts plus the on-disk summary line.
    Stats,
    /// Drop stale-fingerprint and damaged entries, reclaim bytes.
    Gc,
    /// Deep-scan every entry's envelope and payload checksum.
    Verify,
}

/// `condspec attack`: one side-channel scenario (or all) against one
/// defense (or all).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackArgs {
    /// `None` = all six scenarios.
    pub scenario: Option<AttackScenario>,
    /// `None` = all four environments.
    pub defense: Option<DefenseConfig>,
}

/// `condspec variant`: one Spectre variant end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantArgs {
    /// Which gadget.
    pub kind: GadgetKind,
    /// `None` = all four environments.
    pub defense: Option<DefenseConfig>,
}

/// `condspec leaks`: the taint-oracle leak probes and the leak matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaksArgs {
    /// `None` = the Table IV corpus (v1, v2, v4, rsb).
    pub gadget: Option<GadgetKind>,
    /// `None` = all four environments.
    pub defense: Option<DefenseConfig>,
    /// Restrict the corpus to one conditional-branch gadget and one
    /// return-stack gadget (v1, rsb) for smoke runs.
    pub quick: bool,
    /// Also write the per-cell JSON documents here.
    pub out: Option<String>,
}

/// `condspec bench`: one calibrated benchmark and its report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Benchmark name from the suite.
    pub name: String,
    /// `None` = all four environments.
    pub defense: Option<DefenseConfig>,
    /// Machine preset (boxed: `MachineConfig` dwarfs the other fields).
    pub machine: Box<MachineConfig>,
    /// Outer iterations.
    pub iterations: u64,
}

/// `condspec run`: execute a serialized program file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Path to a `CONDSPEC` binary program file.
    pub file: String,
    /// `None` = Origin.
    pub defense: Option<DefenseConfig>,
    /// Cycle budget.
    pub max_cycles: u64,
    /// How to simulate: detailed, functional, or sampled.
    pub mode: RunMode,
    /// Sampled mode: number of evenly spaced checkpoints / windows.
    pub checkpoints: usize,
    /// Sampled mode: detailed instructions measured per window.
    pub window: u64,
    /// Sampled mode: file the plan's checkpoints in the default
    /// persistent store.
    pub store: bool,
    /// Sampled mode: file checkpoints in a store at this root
    /// (implies `store`).
    pub store_root: Option<String>,
}

/// `condspec save`: serialize a generated benchmark to a program file.
#[derive(Debug, Clone, PartialEq)]
pub struct SaveArgs {
    /// Benchmark name from the suite.
    pub name: String,
    /// Output path.
    pub file: String,
    /// Outer iterations baked into the program.
    pub iterations: u64,
}

/// `condspec trace`: a gadget attack round with pipeline tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Which gadget.
    pub kind: GadgetKind,
    /// `None` = Cache-hit + TPBuf.
    pub defense: Option<DefenseConfig>,
    /// Maximum events to print.
    pub events: usize,
    /// Output format.
    pub format: TraceFormat,
    /// Write the trace here instead of stdout.
    pub out: Option<String>,
}

/// `condspec timeseries`: a benchmark under the time-series sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeseriesArgs {
    /// Benchmark name from the suite.
    pub name: String,
    /// `None` = Cache-hit + TPBuf.
    pub defense: Option<DefenseConfig>,
    /// Machine preset (boxed: `MachineConfig` dwarfs the other fields).
    pub machine: Box<MachineConfig>,
    /// Outer iterations.
    pub iterations: u64,
    /// Sample window size in cycles.
    pub window: u64,
    /// Maximum sampled rows kept.
    pub rows: usize,
    /// Output format.
    pub format: SeriesFormat,
    /// Write the series here instead of stdout.
    pub out: Option<String>,
}

/// `condspec report`: re-render a finished sweep from its artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The sweep directory name under the artifact root.
    pub sweep_id: String,
    /// Artifact root; `None` = `target/condspec-runs`.
    pub root: Option<String>,
    /// Also resolve artifacts through the default result store.
    pub store: bool,
    /// Resolve through a store at this root (implies `store`).
    pub store_root: Option<String>,
}

/// `condspec sweep`: a named experiment sweep through the parallel
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Sweep name (`fig5`, `table4`, `table5`, `table6`, `lru`,
    /// `icache`, `leaks`).
    pub name: String,
    /// Worker threads; 0 = all available cores.
    pub jobs: usize,
    /// Skip jobs whose artifacts already exist.
    pub resume: bool,
    /// Artifact root; `None` = `target/condspec-runs`.
    pub root: Option<String>,
    /// Suppress stderr progress lines.
    pub quiet: bool,
    /// Render progress as one live status line instead of one line
    /// per job.
    pub progress: bool,
    /// Write wall-clock telemetry to `telemetry.json` in the sweep
    /// directory.
    pub telemetry: bool,
    /// Consult/fill the default persistent result store.
    pub store: bool,
    /// Use a store at this root (implies `store`).
    pub store_root: Option<String>,
    /// Override benchmark outer iterations for every job.
    pub iters: Option<u64>,
    /// Override benchmark warmup iterations for every job.
    pub warmup: Option<u64>,
    /// Shard across this many local worker processes (claim-based
    /// draining over the store; implies `store`). 1 = no sharding.
    pub shards: usize,
    /// Owner id for claim-mode runs; `None` = `shard-<pid>`.
    pub owner: Option<String>,
    /// Stale-lease steal timeout in milliseconds (claim mode).
    pub steal_after_ms: Option<u64>,
    /// Submit to a running daemon as a distributed sweep and stream
    /// progress instead of simulating locally.
    pub attach: Option<String>,
}

/// `condspec worker`: drain sweep jobs as one shard of a distributed
/// run — claim over a shared store root, or pull work from a daemon via
/// `--attach`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Sweep name to drain (local store mode; ignored with `--attach`,
    /// where the daemon names the work).
    pub sweep: Option<String>,
    /// Pull work from this daemon address instead of a local store.
    pub attach: Option<String>,
    /// Store root; `None` = `target/condspec-store` (or
    /// `$CONDSPEC_STORE_ROOT`).
    pub store_root: Option<String>,
    /// Owner id recorded in leases and provenance; `None` =
    /// `shard-<pid>`.
    pub owner: Option<String>,
    /// Worker threads; 0 = all available cores.
    pub jobs: usize,
    /// Stale-lease steal timeout in milliseconds.
    pub steal_after_ms: Option<u64>,
    /// Idle poll interval in milliseconds (`--attach` mode).
    pub poll_ms: u64,
    /// `--attach` mode: exit when the daemon reports no pending work
    /// instead of polling forever.
    pub drain: bool,
    /// Override benchmark outer iterations for every job (local store
    /// mode).
    pub iters: Option<u64>,
    /// Override benchmark warmup iterations for every job (local store
    /// mode).
    pub warmup: Option<u64>,
}

/// `condspec store`: inspect or maintain the result store offline.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreArgs {
    /// What to do.
    pub action: StoreAction,
    /// Store root; `None` = `target/condspec-store` (or
    /// `$CONDSPEC_STORE_ROOT`).
    pub root: Option<String>,
}

/// `condspec serve`: the HTTP daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads per sweep; 0 = all available cores.
    pub jobs: usize,
    /// Artifact root; `None` = `target/condspec-runs`.
    pub root: Option<String>,
    /// Store root; `None` = the default root (unless `no_store`).
    pub store_root: Option<String>,
    /// Run without a persistent store.
    pub no_store: bool,
}

/// `condspec perf`: simulator throughput over the fixed workload matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// Reduced workload sizes for CI smoke runs.
    pub quick: bool,
    /// Machine preset (boxed: `MachineConfig` dwarfs the other fields).
    pub machine: Box<MachineConfig>,
    /// Restrict the matrix to `<workload>[:<defense>]`.
    pub only: Option<CellFilter>,
    /// Write the JSON document here instead of stdout.
    pub out: Option<String>,
    /// Baseline simspeed JSON to diff against; regressions exit
    /// non-zero (the CI perf guard).
    pub compare: Option<String>,
    /// Also run the per-stage microbenchmark suite.
    pub stages: bool,
    /// Write the stagespeed JSON document here instead of stdout
    /// (implies `--stages`).
    pub stage_out: Option<String>,
    /// Baseline stagespeed JSON to diff against; regressions exit
    /// non-zero (implies `--stages`).
    pub stage_baseline: Option<String>,
}

/// A parsed command: one variant per subcommand, each carrying its
/// arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `condspec attack`.
    Attack(AttackArgs),
    /// `condspec variant`.
    Variant(VariantArgs),
    /// `condspec leaks`.
    Leaks(LeaksArgs),
    /// `condspec bench`.
    Bench(BenchArgs),
    /// `condspec run`.
    Run(RunArgs),
    /// `condspec save`.
    Save(SaveArgs),
    /// `condspec trace`.
    Trace(TraceArgs),
    /// `condspec timeseries`.
    Timeseries(TimeseriesArgs),
    /// `condspec report`.
    Report(ReportArgs),
    /// `condspec sweep`.
    Sweep(SweepArgs),
    /// `condspec worker`.
    Worker(WorkerArgs),
    /// `condspec store`.
    Store(StoreArgs),
    /// `condspec serve`.
    Serve(ServeArgs),
    /// `condspec perf`.
    Perf(PerfArgs),
    /// List the benchmark suite and machine presets.
    List,
    /// Print usage.
    Help,
}

/// Error produced when arguments do not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
condspec — Conditional Speculation (HPCA 2019) reproduction driver

USAGE:
  condspec attack  [--scenario <name>] [--defense <name>]
  condspec variant --kind <v1|v2|v4|rsb|v1-same-page|v1-set-stride> [--defense <name>]
  condspec leaks   [--gadget <variant> | --all | --quick] [--defense <name>]
                   [--out <leaks.json>]
  condspec bench   --name <benchmark> [--defense <name>] [--machine <name>] [--iters <n>]
  condspec run     --file <prog.bin> [--defense <name>] [--max-cycles <n>]
                   [--mode detailed|functional|sampled] [--checkpoints <n>]
                   [--window <insts>] [--store] [--store-root <dir>]
  condspec save    --name <benchmark> --file <prog.bin> [--iters <n>]
  condspec trace   --kind <variant> [--defense <name>] [--events <n>]
                   [--format text|perfetto] [--out <file>]
  condspec timeseries --name <benchmark> [--defense <name>] [--machine <name>]
                   [--iters <n>] [--window <cycles>] [--rows <n>]
                   [--format json|csv] [--out <file>]
  condspec sweep   <name> [--jobs <n>] [--resume] [--root <dir>] [--quiet]
                   [--progress] [--telemetry] [--store] [--store-root <dir>]
                   [--iters <n>] [--warmup <n>] [--shards <n>] [--owner <id>]
                   [--steal-after-ms <n>] [--attach <host:port>]
  condspec worker  [<sweep>] [--attach <host:port>] [--store-root <dir>]
                   [--owner <id>] [--jobs <n>] [--steal-after-ms <n>]
                   [--poll-ms <n>] [--drain] [--iters <n>] [--warmup <n>]
  condspec report  <sweep-id> [--root <dir>] [--store] [--store-root <dir>]
  condspec store   <stats|gc|verify> [--root <dir>]
  condspec serve   [--addr <host:port>] [--jobs <n>] [--root <dir>]
                   [--store-root <dir>] [--no-store]
  condspec perf    [--quick] [--machine <name>] [--out <file>]
                   [--compare <baseline.json>] [--only <workload>[:<defense>]]
                   [--stages] [--stage-out <file>]
                   [--stage-baseline <baseline.json>]
  condspec list
  condspec help

SCENARIOS: flush-reload, flush-flush, evict-reload, prime-probe,
           prime-probe-noshare, evict-time
DEFENSES:  origin, baseline, cache-hit, cache-hit-tpbuf
MACHINES:  paper-default, a57, i7, xeon
SWEEPS:    fig5, table4, table5, table6, lru, icache, leaks
           (artifacts land under target/condspec-runs/<sweep-id>/;
            re-run with --resume to skip completed jobs, or with
            --store to reuse results from target/condspec-store —
            override the store root with $CONDSPEC_STORE_ROOT)
";

/// Pulls a boolean `--flag` out of `args`, returning whether it was
/// present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Pulls the value of `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ParseError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(ParseError(format!("{flag} needs a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls the value of `--flag` out of `args` and parses it as a `T`.
fn take_parsed<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, ParseError> {
    take_flag(args, flag)?
        .map(|s| {
            s.parse()
                .map_err(|_| ParseError(format!("bad {flag} `{s}`")))
        })
        .transpose()
}

/// Pulls the value of `--flag` out of `args` and looks it up in a name
/// table (`what` names the table in the error).
fn take_key<T>(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
    from_key: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, ParseError> {
    take_flag(args, flag)?
        .map(|s| from_key(&s).ok_or_else(|| ParseError(format!("unknown {what} `{s}`"))))
        .transpose()
}

/// `--defense <name>`.
fn take_defense(args: &mut Vec<String>) -> Result<Option<DefenseConfig>, ParseError> {
    take_key(args, "--defense", "defense", DefenseConfig::from_key)
}

/// `--machine <name>`, defaulting to the paper's machine.
fn take_machine(args: &mut Vec<String>) -> Result<Box<MachineConfig>, ParseError> {
    let preset = take_key(args, "--machine", "machine", MachinePreset::from_key)?;
    Ok(Box::new(
        preset.unwrap_or(MachinePreset::PaperDefault).config(),
    ))
}

/// Pulls a leading positional argument (one not starting with `--`).
fn take_positional(args: &mut Vec<String>) -> Option<String> {
    match args.first() {
        Some(first) if !first.starts_with("--") => Some(args.remove(0)),
        _ => None,
    }
}

/// A mandatory value: `message` is the error when it is missing.
fn required<T>(value: Option<T>, message: &str) -> Result<T, ParseError> {
    value.ok_or_else(|| ParseError(message.to_string()))
}

/// Rejects an explicit zero for a count that must be positive.
fn positive<T: Default + PartialEq>(
    value: Option<T>,
    message: &str,
) -> Result<Option<T>, ParseError> {
    if value == Some(T::default()) {
        return Err(ParseError(message.to_string()));
    }
    Ok(value)
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a human-readable message on unknown
/// commands, flags or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let rest = &mut rest.to_vec();
    let parsed = match command.as_str() {
        "attack" => Command::Attack(AttackArgs {
            scenario: take_key(rest, "--scenario", "scenario", AttackScenario::from_key)?,
            defense: take_defense(rest)?,
        }),
        "variant" => Command::Variant(VariantArgs {
            kind: required(
                take_key(rest, "--kind", "variant", GadgetKind::from_key)?,
                "variant requires --kind",
            )?,
            defense: take_defense(rest)?,
        }),
        "leaks" => {
            let gadget = take_key(rest, "--gadget", "variant", GadgetKind::from_key)?;
            let all = take_switch(rest, "--all");
            let quick = take_switch(rest, "--quick");
            if gadget.is_some() && (all || quick) {
                return Err(ParseError("--gadget conflicts with --all/--quick".into()));
            }
            if all && quick {
                return Err(ParseError("--all conflicts with --quick".into()));
            }
            Command::Leaks(LeaksArgs {
                gadget,
                defense: take_defense(rest)?,
                quick,
                out: take_flag(rest, "--out")?,
            })
        }
        "bench" => Command::Bench(BenchArgs {
            name: required(take_flag(rest, "--name")?, "bench requires --name")?,
            defense: take_defense(rest)?,
            machine: take_machine(rest)?,
            iterations: take_parsed(rest, "--iters")?.unwrap_or(25),
        }),
        "run" => {
            let file = required(take_flag(rest, "--file")?, "run requires --file")?;
            let defense = take_defense(rest)?;
            let max_cycles = take_parsed(rest, "--max-cycles")?.unwrap_or(100_000_000);
            let mode = match take_flag(rest, "--mode")?.as_deref() {
                None | Some("detailed") => RunMode::Detailed,
                Some("functional") => RunMode::Functional,
                Some("sampled") => RunMode::Sampled,
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown run mode `{other}` — available: detailed, functional, sampled"
                    )));
                }
            };
            let checkpoints = positive(
                take_parsed(rest, "--checkpoints")?,
                "--checkpoints must be at least 1",
            )?;
            let window = positive(
                take_parsed(rest, "--window")?,
                "--window must be at least 1 instruction",
            )?;
            let store = take_switch(rest, "--store");
            let store_root = take_flag(rest, "--store-root")?;
            if mode != RunMode::Sampled
                && (checkpoints.is_some() || window.is_some() || store || store_root.is_some())
            {
                return Err(ParseError(
                    "--checkpoints/--window/--store only apply to --mode sampled".into(),
                ));
            }
            Command::Run(RunArgs {
                file,
                defense,
                max_cycles,
                mode,
                checkpoints: checkpoints.unwrap_or(condspec::DEFAULT_CHECKPOINTS),
                window: window.unwrap_or(condspec::DEFAULT_WINDOW),
                store,
                store_root,
            })
        }
        "save" => Command::Save(SaveArgs {
            name: required(take_flag(rest, "--name")?, "save requires --name")?,
            file: required(take_flag(rest, "--file")?, "save requires --file")?,
            iterations: take_parsed(rest, "--iters")?.unwrap_or(25),
        }),
        "trace" => Command::Trace(TraceArgs {
            kind: required(
                take_key(rest, "--kind", "variant", GadgetKind::from_key)?,
                "trace requires --kind",
            )?,
            defense: take_defense(rest)?,
            events: take_parsed(rest, "--events")?.unwrap_or(120),
            format: take_key(rest, "--format", "trace format", |s| match s {
                "text" => Some(TraceFormat::Text),
                "perfetto" | "chrome" => Some(TraceFormat::Perfetto),
                _ => None,
            })?
            .unwrap_or(TraceFormat::Text),
            out: take_flag(rest, "--out")?,
        }),
        "timeseries" => Command::Timeseries(TimeseriesArgs {
            name: required(take_flag(rest, "--name")?, "timeseries requires --name")?,
            defense: take_defense(rest)?,
            machine: take_machine(rest)?,
            iterations: take_parsed(rest, "--iters")?.unwrap_or(25),
            window: positive(
                take_parsed(rest, "--window")?,
                "--window must be at least 1 cycle",
            )?
            .unwrap_or(10_000),
            rows: positive(take_parsed(rest, "--rows")?, "--rows must be at least 1")?
                .unwrap_or(4096),
            format: take_key(rest, "--format", "series format", |s| match s {
                "json" => Some(SeriesFormat::Json),
                "csv" => Some(SeriesFormat::Csv),
                _ => None,
            })?
            .unwrap_or(SeriesFormat::Json),
            out: take_flag(rest, "--out")?,
        }),
        "report" => Command::Report(ReportArgs {
            sweep_id: required(take_positional(rest), "report requires a sweep id")?,
            root: take_flag(rest, "--root")?,
            store: take_switch(rest, "--store"),
            store_root: take_flag(rest, "--store-root")?,
        }),
        "sweep" => {
            let args = SweepArgs {
                name: required(take_positional(rest), "sweep requires a sweep name")?,
                jobs: take_parsed(rest, "--jobs")?.unwrap_or(0),
                resume: take_switch(rest, "--resume"),
                quiet: take_switch(rest, "--quiet"),
                progress: take_switch(rest, "--progress"),
                telemetry: take_switch(rest, "--telemetry"),
                root: take_flag(rest, "--root")?,
                store: take_switch(rest, "--store"),
                store_root: take_flag(rest, "--store-root")?,
                iters: positive(take_parsed(rest, "--iters")?, "--iters must be at least 1")?,
                warmup: take_parsed(rest, "--warmup")?,
                shards: positive(
                    take_parsed(rest, "--shards")?,
                    "--shards must be at least 1",
                )?
                .unwrap_or(1),
                owner: take_flag(rest, "--owner")?,
                steal_after_ms: positive(
                    take_parsed(rest, "--steal-after-ms")?,
                    "--steal-after-ms must be at least 1",
                )?,
                attach: take_flag(rest, "--attach")?,
            };
            if args.attach.is_some() && args.shards > 1 {
                return Err(ParseError("--attach conflicts with --shards".into()));
            }
            Command::Sweep(args)
        }
        "worker" => {
            let sweep = take_positional(rest);
            let attach = take_flag(rest, "--attach")?;
            if sweep.is_none() && attach.is_none() {
                return Err(ParseError(
                    "worker requires a sweep name (store mode) or --attach <host:port>".into(),
                ));
            }
            Command::Worker(WorkerArgs {
                sweep,
                attach,
                store_root: take_flag(rest, "--store-root")?,
                owner: take_flag(rest, "--owner")?,
                jobs: take_parsed(rest, "--jobs")?.unwrap_or(0),
                steal_after_ms: positive(
                    take_parsed(rest, "--steal-after-ms")?,
                    "--steal-after-ms must be at least 1",
                )?,
                poll_ms: take_parsed(rest, "--poll-ms")?.unwrap_or(200),
                drain: take_switch(rest, "--drain"),
                iters: positive(take_parsed(rest, "--iters")?, "--iters must be at least 1")?,
                warmup: take_parsed(rest, "--warmup")?,
            })
        }
        "store" => {
            let action = match take_positional(rest).as_deref() {
                Some("stats") => StoreAction::Stats,
                Some("gc") => StoreAction::Gc,
                Some("verify") => StoreAction::Verify,
                Some(other) => {
                    return Err(ParseError(format!("unknown store action `{other}`")));
                }
                None => {
                    return Err(ParseError(
                        "store requires an action: stats, gc or verify".into(),
                    ));
                }
            };
            Command::Store(StoreArgs {
                action,
                root: take_flag(rest, "--root")?,
            })
        }
        "serve" => {
            let args = ServeArgs {
                addr: take_flag(rest, "--addr")?
                    .unwrap_or_else(|| condspec_serve::DEFAULT_ADDR.to_string()),
                jobs: take_parsed(rest, "--jobs")?.unwrap_or(0),
                root: take_flag(rest, "--root")?,
                store_root: take_flag(rest, "--store-root")?,
                no_store: take_switch(rest, "--no-store"),
            };
            if args.no_store && args.store_root.is_some() {
                return Err(ParseError("--no-store conflicts with --store-root".into()));
            }
            Command::Serve(args)
        }
        "perf" => {
            let quick = take_switch(rest, "--quick");
            let machine = take_machine(rest)?;
            let only = take_flag(rest, "--only")?
                .map(|s| CellFilter::parse(&s).map_err(ParseError))
                .transpose()?;
            let out = take_flag(rest, "--out")?;
            let compare = take_flag(rest, "--compare")?;
            let stages = take_switch(rest, "--stages");
            let stage_out = take_flag(rest, "--stage-out")?;
            let stage_baseline = take_flag(rest, "--stage-baseline")?;
            Command::Perf(PerfArgs {
                quick,
                machine,
                only,
                out,
                compare,
                stages: stages || stage_out.is_some() || stage_baseline.is_some(),
                stage_out,
                stage_baseline,
            })
        }
        "list" => Command::List,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown command `{other}`"))),
    };
    if let Command::Help | Command::List = parsed {
        return Ok(parsed);
    }
    if !rest.is_empty() {
        return Err(ParseError(format!("unexpected arguments: {rest:?}")));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn attack_defaults_to_full_sweep() {
        assert_eq!(
            parse(&argv("attack")).unwrap(),
            Command::Attack(AttackArgs {
                scenario: None,
                defense: None
            })
        );
    }

    #[test]
    fn attack_with_flags() {
        assert_eq!(
            parse(&argv("attack --scenario flush-reload --defense origin")).unwrap(),
            Command::Attack(AttackArgs {
                scenario: Some(AttackScenario::FlushReloadShared),
                defense: Some(DefenseConfig::Origin),
            })
        );
    }

    #[test]
    fn variant_requires_kind() {
        assert!(parse(&argv("variant")).is_err());
        assert_eq!(
            parse(&argv("variant --kind v4 --defense baseline")).unwrap(),
            Command::Variant(VariantArgs {
                kind: GadgetKind::V4,
                defense: Some(DefenseConfig::Baseline)
            })
        );
    }

    #[test]
    fn leaks_defaults_to_full_matrix() {
        assert_eq!(
            parse(&argv("leaks")).unwrap(),
            Command::Leaks(LeaksArgs {
                gadget: None,
                defense: None,
                quick: false,
                out: None,
            })
        );
        assert_eq!(
            parse(&argv("leaks --all")).unwrap(),
            parse(&argv("leaks")).unwrap()
        );
    }

    #[test]
    fn leaks_with_flags() {
        assert_eq!(
            parse(&argv("leaks --gadget rsb --defense cache-hit --out m.json")).unwrap(),
            Command::Leaks(LeaksArgs {
                gadget: Some(GadgetKind::Rsb),
                defense: Some(DefenseConfig::CacheHit),
                quick: false,
                out: Some("m.json".into()),
            })
        );
        assert_eq!(
            parse(&argv("leaks --quick")).unwrap(),
            Command::Leaks(LeaksArgs {
                gadget: None,
                defense: None,
                quick: true,
                out: None,
            })
        );
    }

    #[test]
    fn leaks_rejects_conflicting_corpus_flags() {
        assert!(parse(&argv("leaks --gadget v1 --quick")).is_err());
        assert!(parse(&argv("leaks --gadget v1 --all")).is_err());
        assert!(parse(&argv("leaks --all --quick")).is_err());
    }

    #[test]
    fn bench_parses_all_flags() {
        match parse(&argv(
            "bench --name lbm --defense tpbuf --machine i7 --iters 7",
        ))
        .unwrap()
        {
            Command::Bench(BenchArgs {
                name,
                defense,
                machine,
                iterations,
            }) => {
                assert_eq!(name, "lbm");
                assert_eq!(defense, Some(DefenseConfig::CacheHitTpbuf));
                assert_eq!(machine.name, "I7-like");
                assert_eq!(iterations, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_and_save_parse() {
        match parse(&argv("run --file p.bin --defense origin --max-cycles 99")).unwrap() {
            Command::Run(RunArgs {
                file,
                defense,
                max_cycles,
                mode,
                checkpoints,
                window,
                store,
                store_root,
            }) => {
                assert_eq!(file, "p.bin");
                assert_eq!(defense, Some(DefenseConfig::Origin));
                assert_eq!(max_cycles, 99);
                assert_eq!(mode, RunMode::Detailed);
                assert_eq!(checkpoints, condspec::DEFAULT_CHECKPOINTS);
                assert_eq!(window, condspec::DEFAULT_WINDOW);
                assert!(!store);
                assert_eq!(store_root, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("save --name gcc --file out.bin")).unwrap() {
            Command::Save(SaveArgs {
                name,
                file,
                iterations,
            }) => {
                assert_eq!(name, "gcc");
                assert_eq!(file, "out.bin");
                assert_eq!(iterations, 25);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("save --name gcc")).is_err());
    }

    #[test]
    fn run_modes_parse() {
        match parse(&argv("run --file p.bin --mode functional")).unwrap() {
            Command::Run(RunArgs { mode, .. }) => assert_eq!(mode, RunMode::Functional),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "run --file p.bin --mode sampled --checkpoints 4 --window 5000 \
             --store-root /tmp/store",
        ))
        .unwrap()
        {
            Command::Run(RunArgs {
                mode,
                checkpoints,
                window,
                store_root,
                ..
            }) => {
                assert_eq!(mode, RunMode::Sampled);
                assert_eq!(checkpoints, 4);
                assert_eq!(window, 5000);
                assert_eq!(store_root, Some("/tmp/store".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --file p.bin --mode turbo")).is_err());
        assert!(parse(&argv("run --file p.bin --mode sampled --checkpoints 0")).is_err());
        assert!(parse(&argv("run --file p.bin --mode sampled --window 0")).is_err());
        assert!(
            parse(&argv("run --file p.bin --checkpoints 4")).is_err(),
            "sampling knobs need --mode sampled"
        );
        assert!(
            parse(&argv("run --file p.bin --mode functional --store")).is_err(),
            "checkpoint filing needs --mode sampled"
        );
    }

    #[test]
    fn trace_parses() {
        match parse(&argv("trace --kind v1 --events 10")).unwrap() {
            Command::Trace(TraceArgs {
                kind,
                defense,
                events,
                format,
                out,
            }) => {
                assert_eq!(kind, GadgetKind::V1);
                assert_eq!(defense, None);
                assert_eq!(events, 10);
                assert_eq!(format, TraceFormat::Text);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("trace --kind v2 --format perfetto --out t.json")).unwrap() {
            Command::Trace(TraceArgs { format, out, .. }) => {
                assert_eq!(format, TraceFormat::Perfetto);
                assert_eq!(out, Some("t.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("trace --kind v1 --format xml")).is_err());
    }

    #[test]
    fn timeseries_parses() {
        match parse(&argv("timeseries --name gcc")).unwrap() {
            Command::Timeseries(TimeseriesArgs {
                name,
                defense,
                iterations,
                window,
                rows,
                format,
                out,
                ..
            }) => {
                assert_eq!(name, "gcc");
                assert_eq!(defense, None);
                assert_eq!(iterations, 25);
                assert_eq!(window, 10_000);
                assert_eq!(rows, 4096);
                assert_eq!(format, SeriesFormat::Json);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "timeseries --name lbm --defense origin --machine i7 \
             --iters 3 --window 500 --rows 16 --format csv --out s.csv",
        ))
        .unwrap()
        {
            Command::Timeseries(TimeseriesArgs {
                name,
                defense,
                machine,
                iterations,
                window,
                rows,
                format,
                out,
            }) => {
                assert_eq!(name, "lbm");
                assert_eq!(defense, Some(DefenseConfig::Origin));
                assert_eq!(machine.name, "I7-like");
                assert_eq!(iterations, 3);
                assert_eq!(window, 500);
                assert_eq!(rows, 16);
                assert_eq!(format, SeriesFormat::Csv);
                assert_eq!(out, Some("s.csv".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("timeseries")).is_err(), "needs --name");
        assert!(parse(&argv("timeseries --name gcc --window 0")).is_err());
        assert!(parse(&argv("timeseries --name gcc --rows 0")).is_err());
        assert!(parse(&argv("timeseries --name gcc --format yaml")).is_err());
    }

    #[test]
    fn report_parses() {
        assert_eq!(
            parse(&argv("report fig5-0123abcd")).unwrap(),
            Command::Report(ReportArgs {
                sweep_id: "fig5-0123abcd".to_string(),
                root: None,
                store: false,
                store_root: None
            })
        );
        assert_eq!(
            parse(&argv(
                "report fig5-0123abcd --root /tmp/runs --store-root /tmp/store"
            ))
            .unwrap(),
            Command::Report(ReportArgs {
                sweep_id: "fig5-0123abcd".to_string(),
                root: Some("/tmp/runs".to_string()),
                store: false,
                store_root: Some("/tmp/store".to_string())
            })
        );
        assert!(parse(&argv("report")).is_err(), "report needs a sweep id");
        assert!(parse(&argv("report --root /tmp")).is_err());
    }

    #[test]
    fn sweep_parses() {
        assert_eq!(
            parse(&argv("sweep fig5")).unwrap(),
            Command::Sweep(SweepArgs {
                name: "fig5".to_string(),
                jobs: 0,
                resume: false,
                root: None,
                quiet: false,
                progress: false,
                telemetry: false,
                store: false,
                store_root: None,
                iters: None,
                warmup: None,
                shards: 1,
                owner: None,
                steal_after_ms: None,
                attach: None
            })
        );
        assert_eq!(
            parse(&argv(
                "sweep table4 --jobs 8 --resume --root /tmp/runs --quiet --progress --telemetry"
            ))
            .unwrap(),
            Command::Sweep(SweepArgs {
                name: "table4".to_string(),
                jobs: 8,
                resume: true,
                root: Some("/tmp/runs".to_string()),
                quiet: true,
                progress: true,
                telemetry: true,
                store: false,
                store_root: None,
                iters: None,
                warmup: None,
                shards: 1,
                owner: None,
                steal_after_ms: None,
                attach: None
            })
        );
        assert!(parse(&argv("sweep")).is_err(), "sweep needs a name");
        assert!(
            parse(&argv("sweep --jobs 2")).is_err(),
            "flag is not a name"
        );
        assert!(parse(&argv("sweep fig5 --jobs many")).is_err());
        assert!(parse(&argv("sweep fig5 stray")).is_err());
    }

    #[test]
    fn sweep_store_and_scaling_flags_parse() {
        match parse(&argv(
            "sweep fig5 --store --store-root /tmp/store --iters 2 --warmup 1",
        ))
        .unwrap()
        {
            Command::Sweep(SweepArgs {
                store,
                store_root,
                iters,
                warmup,
                ..
            }) => {
                assert!(store);
                assert_eq!(store_root, Some("/tmp/store".to_string()));
                assert_eq!(iters, Some(2));
                assert_eq!(warmup, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep fig5 --iters 0")).is_err());
        assert!(parse(&argv("sweep fig5 --iters many")).is_err());
        assert!(parse(&argv("sweep fig5 --warmup many")).is_err());
    }

    #[test]
    fn sweep_sharding_flags_parse() {
        match parse(&argv(
            "sweep fig5 --shards 4 --owner shard-a --steal-after-ms 500 --store-root /tmp/s",
        ))
        .unwrap()
        {
            Command::Sweep(SweepArgs {
                shards,
                owner,
                steal_after_ms,
                attach,
                ..
            }) => {
                assert_eq!(shards, 4);
                assert_eq!(owner, Some("shard-a".to_string()));
                assert_eq!(steal_after_ms, Some(500));
                assert_eq!(attach, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("sweep leaks --attach 127.0.0.1:7877")).unwrap() {
            Command::Sweep(SweepArgs { attach, shards, .. }) => {
                assert_eq!(attach, Some("127.0.0.1:7877".to_string()));
                assert_eq!(shards, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep fig5 --shards 0")).is_err());
        assert!(parse(&argv("sweep fig5 --shards many")).is_err());
        assert!(parse(&argv("sweep fig5 --steal-after-ms 0")).is_err());
        assert!(
            parse(&argv("sweep fig5 --shards 2 --attach 127.0.0.1:7877")).is_err(),
            "local sharding and daemon attach are different modes"
        );
    }

    #[test]
    fn worker_parses() {
        assert_eq!(
            parse(&argv("worker fig5 --store-root /tmp/s --owner w1 --jobs 2")).unwrap(),
            Command::Worker(WorkerArgs {
                sweep: Some("fig5".to_string()),
                attach: None,
                store_root: Some("/tmp/s".to_string()),
                owner: Some("w1".to_string()),
                jobs: 2,
                steal_after_ms: None,
                poll_ms: 200,
                drain: false,
                iters: None,
                warmup: None,
            })
        );
        assert_eq!(
            parse(&argv("worker --attach 127.0.0.1:7877 --poll-ms 50 --drain")).unwrap(),
            Command::Worker(WorkerArgs {
                sweep: None,
                attach: Some("127.0.0.1:7877".to_string()),
                store_root: None,
                owner: None,
                jobs: 0,
                steal_after_ms: None,
                poll_ms: 50,
                drain: true,
                iters: None,
                warmup: None,
            })
        );
        match parse(&argv(
            "worker fig5 --steal-after-ms 250 --iters 2 --warmup 1",
        ))
        .unwrap()
        {
            Command::Worker(WorkerArgs {
                steal_after_ms,
                iters,
                warmup,
                ..
            }) => {
                assert_eq!(steal_after_ms, Some(250));
                assert_eq!(iters, Some(2));
                assert_eq!(warmup, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&argv("worker")).is_err(),
            "needs a sweep or an address"
        );
        assert!(parse(&argv("worker fig5 --steal-after-ms 0")).is_err());
        assert!(parse(&argv("worker fig5 --jobs many")).is_err());
        assert!(parse(&argv("worker fig5 stray")).is_err());
    }

    #[test]
    fn store_parses() {
        assert_eq!(
            parse(&argv("store stats")).unwrap(),
            Command::Store(StoreArgs {
                action: StoreAction::Stats,
                root: None
            })
        );
        assert_eq!(
            parse(&argv("store gc --root /tmp/store")).unwrap(),
            Command::Store(StoreArgs {
                action: StoreAction::Gc,
                root: Some("/tmp/store".to_string())
            })
        );
        assert_eq!(
            parse(&argv("store verify")).unwrap(),
            Command::Store(StoreArgs {
                action: StoreAction::Verify,
                root: None
            })
        );
        assert!(parse(&argv("store")).is_err(), "store needs an action");
        assert!(parse(&argv("store prune")).is_err(), "unknown action");
        assert!(parse(&argv("store --root /tmp")).is_err());
        assert!(parse(&argv("store stats stray")).is_err());
    }

    #[test]
    fn serve_parses() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeArgs {
                addr: condspec_serve::DEFAULT_ADDR.to_string(),
                jobs: 0,
                root: None,
                store_root: None,
                no_store: false
            })
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --jobs 4 --root /tmp/runs --store-root /tmp/store"
            ))
            .unwrap(),
            Command::Serve(ServeArgs {
                addr: "127.0.0.1:0".to_string(),
                jobs: 4,
                root: Some("/tmp/runs".to_string()),
                store_root: Some("/tmp/store".to_string()),
                no_store: false
            })
        );
        assert_eq!(
            parse(&argv("serve --no-store")).unwrap(),
            Command::Serve(ServeArgs {
                addr: condspec_serve::DEFAULT_ADDR.to_string(),
                jobs: 0,
                root: None,
                store_root: None,
                no_store: true
            })
        );
        assert!(
            parse(&argv("serve --no-store --store-root /tmp")).is_err(),
            "contradictory store flags"
        );
        assert!(parse(&argv("serve --jobs many")).is_err());
    }

    #[test]
    fn perf_parses() {
        match parse(&argv("perf")).unwrap() {
            Command::Perf(PerfArgs {
                quick,
                machine,
                only,
                out,
                compare,
                stages,
                stage_out,
                stage_baseline,
            }) => {
                assert!(!quick);
                assert_eq!(machine.name, MachineConfig::paper_default().name);
                assert_eq!(only, None);
                assert_eq!(out, None);
                assert_eq!(compare, None);
                assert!(!stages);
                assert_eq!(stage_out, None);
                assert_eq!(stage_baseline, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "perf --quick --machine xeon --out speed.json --compare base.json",
        ))
        .unwrap()
        {
            Command::Perf(PerfArgs {
                quick,
                machine,
                out,
                compare,
                ..
            }) => {
                assert!(quick);
                assert_eq!(machine.name, MachineConfig::xeon_like().name);
                assert_eq!(out, Some("speed.json".to_string()));
                assert_eq!(compare, Some("base.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("perf --machine m1")).is_err());
        assert!(parse(&argv("perf stray")).is_err());
    }

    #[test]
    fn perf_only_and_stage_flags_parse() {
        match parse(&argv("perf --only pointer-chase:origin")).unwrap() {
            Command::Perf(PerfArgs { only, stages, .. }) => {
                let filter = only.expect("filter parsed");
                assert_eq!(filter.workload, "pointer-chase");
                assert_eq!(filter.defense, Some(DefenseConfig::Origin));
                assert!(!stages);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("perf --only counting-loop")).unwrap() {
            Command::Perf(PerfArgs { only, .. }) => {
                assert_eq!(only.unwrap().defense, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("perf --only nope")).is_err());
        assert!(parse(&argv("perf --only pointer-chase:nope")).is_err());

        match parse(&argv("perf --stages")).unwrap() {
            Command::Perf(PerfArgs { stages, .. }) => assert!(stages),
            other => panic!("unexpected {other:?}"),
        }
        // --stage-out / --stage-baseline imply the suite.
        match parse(&argv("perf --stage-out s.json --stage-baseline b.json")).unwrap() {
            Command::Perf(PerfArgs {
                stages,
                stage_out,
                stage_baseline,
                ..
            }) => {
                assert!(stages);
                assert_eq!(stage_out, Some("s.json".to_string()));
                assert_eq!(stage_baseline, Some("b.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_values() {
        assert!(parse(&argv("attack --scenario nope")).is_err());
        assert!(parse(&argv("bench --name lbm --machine m1")).is_err());
        assert!(parse(&argv("bench --name lbm --iters many")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(
            parse(&argv("attack --defense")).is_err(),
            "flag without value"
        );
        assert!(parse(&argv("attack stray")).is_err(), "stray positional");
    }

    #[test]
    fn accepts_every_documented_name_and_alias() {
        let scenarios = [
            ("flush-reload", AttackScenario::FlushReloadShared),
            ("flush-flush", AttackScenario::FlushFlushShared),
            ("evict-reload", AttackScenario::EvictReloadShared),
            ("prime-probe", AttackScenario::PrimeProbeShared),
            ("prime-probe-noshare", AttackScenario::PrimeProbeNoShare),
            ("evict-time", AttackScenario::EvictTimeNoShare),
        ];
        for (name, scenario) in scenarios {
            let parsed = parse(&argv(&format!("attack --scenario {name}"))).unwrap();
            assert_eq!(
                parsed,
                Command::Attack(AttackArgs {
                    scenario: Some(scenario),
                    defense: None
                })
            );
        }
        let defenses = [
            ("origin", DefenseConfig::Origin),
            ("baseline", DefenseConfig::Baseline),
            ("cache-hit", DefenseConfig::CacheHit),
            ("cachehit", DefenseConfig::CacheHit),
            ("cache-hit-tpbuf", DefenseConfig::CacheHitTpbuf),
            ("tpbuf", DefenseConfig::CacheHitTpbuf),
        ];
        for (name, defense) in defenses {
            let parsed = parse(&argv(&format!("variant --kind v1 --defense {name}"))).unwrap();
            assert_eq!(
                parsed,
                Command::Variant(VariantArgs {
                    kind: GadgetKind::V1,
                    defense: Some(defense)
                })
            );
        }
        for name in ["v1", "v2", "v4", "rsb", "v1-same-page", "v1-set-stride"] {
            match parse(&argv(&format!("trace --kind {name}"))).unwrap() {
                Command::Trace(TraceArgs { kind, .. }) => assert_eq!(kind.key(), name),
                other => panic!("unexpected {other:?}"),
            }
        }
        let machines = [
            ("paper-default", MachineConfig::paper_default()),
            ("paper", MachineConfig::paper_default()),
            ("a57", MachineConfig::a57_like()),
            ("i7", MachineConfig::i7_like()),
            ("xeon", MachineConfig::xeon_like()),
        ];
        for (name, machine) in machines {
            match parse(&argv(&format!("bench --name gcc --machine {name}"))).unwrap() {
                Command::Bench(BenchArgs { machine: got, .. }) => assert_eq!(*got, machine),
                other => panic!("unexpected {other:?}"),
            }
        }
        match parse(&argv("trace --kind v1 --format chrome")).unwrap() {
            Command::Trace(TraceArgs { format, .. }) => assert_eq!(format, TraceFormat::Perfetto),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv("variant --kind v3")).unwrap_err(),
            ParseError("unknown variant `v3`".to_string())
        );
    }
}
