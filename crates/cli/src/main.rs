//! `condspec` — command-line driver for the Conditional Speculation
//! reproduction: mount attacks, run calibrated benchmarks, inspect
//! machine presets.

mod args;

use args::{
    parse, AttackArgs, BenchArgs, Command, LeaksArgs, PerfArgs, ReportArgs, RunArgs, RunMode,
    SaveArgs, SeriesFormat, ServeArgs, StoreAction, StoreArgs, SweepArgs, TimeseriesArgs,
    TraceArgs, TraceFormat, VariantArgs, WorkerArgs, USAGE,
};
use condspec::{leak_report_to_json, DefenseConfig, SimConfig, Simulator};
use condspec_attacks::{leak_probe, run_variant, traced_variant_round, AttackScenario};
use condspec_bench::guard::{compare, DocKind};
use condspec_bench::perf::HostInfo;
use condspec_engine::{ClaimOptions, Sweep};
use condspec_isa::Program;
use condspec_stats::{Json, TextTable};
use condspec_store::ResultStore;
use condspec_workloads::spec::{build_program, by_name, suite, WorkloadSpec};
use condspec_workloads::GadgetKind;
use std::path::{Path, PathBuf};
use std::process::{Child, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(cmd) => run(cmd),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand's result: its exit code, or a message that goes to
/// stderr and fails the run.
type CmdResult = Result<ExitCode, String>;

fn run(cmd: Command) -> ExitCode {
    let result = match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::List => cmd_list(),
        Command::Attack(a) => cmd_attack(a),
        Command::Variant(a) => cmd_variant(a),
        Command::Leaks(a) => cmd_leaks(a),
        Command::Bench(a) => cmd_bench(a),
        Command::Run(a) => cmd_run(a),
        Command::Save(a) => cmd_save(a),
        Command::Trace(a) => cmd_trace(a),
        Command::Timeseries(a) => cmd_timeseries(a),
        Command::Report(a) => cmd_report(a),
        Command::Sweep(a) => cmd_sweep(a),
        Command::Worker(a) => cmd_worker(a),
        Command::Store(a) => cmd_store(a),
        Command::Serve(a) => cmd_serve(a),
        Command::Perf(a) => cmd_perf(a),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

fn exit_code(success: bool) -> ExitCode {
    if success {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn defenses(selected: Option<DefenseConfig>) -> Vec<DefenseConfig> {
    match selected {
        Some(d) => vec![d],
        None => DefenseConfig::ALL.to_vec(),
    }
}

fn benchmark(name: &str) -> Result<WorkloadSpec, String> {
    by_name(name).ok_or_else(|| format!("unknown benchmark `{name}` — try `condspec list`"))
}

fn sweep_by_name(name: &str) -> Result<Sweep, String> {
    Sweep::by_name(name).ok_or_else(|| {
        format!(
            "unknown sweep `{name}` — available: {}",
            Sweep::NAMES.join(", ")
        )
    })
}

/// A store root flag: an explicit root, else the default root.
fn store_path(root: Option<String>) -> PathBuf {
    root.map(PathBuf::from)
        .unwrap_or_else(ResultStore::default_root)
}

/// Resolves a `--store`/`--store-root` pair: an explicit root wins, the
/// bare switch selects the default root, neither disables the store.
fn store_root_from(store: bool, root: Option<String>) -> Option<PathBuf> {
    (store || root.is_some()).then(|| store_path(root))
}

fn claim_options(owner: String, steal_after_ms: Option<u64>) -> ClaimOptions {
    let mut claim = ClaimOptions::new(owner);
    if let Some(ms) = steal_after_ms {
        claim.steal_after = Duration::from_millis(ms);
    }
    claim
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes `rendered` to `out`, or prints it when no `--out` was given;
/// returns the path written.
fn write_or_print<'a>(out: Option<&'a str>, rendered: &str) -> Result<Option<&'a str>, String> {
    match out {
        Some(path) => write_file(path, rendered).map(|()| Some(path)),
        None => {
            print!("{rendered}");
            Ok(None)
        }
    }
}

fn print_nonzero_regs(sim: &Simulator) {
    println!("nonzero architectural registers:");
    for reg in condspec_isa::Reg::ALL {
        let v = sim.read_arch_reg(reg);
        if v != 0 {
            println!("  {reg} = {v:#x}");
        }
    }
}

fn cmd_list() -> CmdResult {
    println!("benchmarks (calibrated to the paper's Table V):");
    let mut t = TextTable::with_columns(&["name", "L1 hit target", "seq-miss", "stores", "region"]);
    for w in suite() {
        t.row(vec![
            w.name.to_string(),
            format!("{:.1}%", w.l1_hit_target * 100.0),
            format!("{:.1}%", w.seq_miss_fraction * 100.0),
            format!("{:.0}%", w.store_fraction * 100.0),
            format!("{} MiB", w.region_bytes / (1024 * 1024)),
        ]);
    }
    println!("{t}");
    println!("machines: paper-default, a57, i7, xeon");
    println!("defenses: origin, baseline, cache-hit, cache-hit-tpbuf");
    Ok(ExitCode::SUCCESS)
}

fn cmd_attack(a: AttackArgs) -> CmdResult {
    let scenarios = match a.scenario {
        Some(s) => vec![s],
        None => AttackScenario::ALL.to_vec(),
    };
    let mut t = TextTable::with_columns(&["scenario", "defense", "result"]);
    let mut all_expected = true;
    for s in &scenarios {
        for d in defenses(a.defense) {
            let outcome = s.run(d);
            let expected = s.expected_defended(d) != outcome.leaked();
            all_expected &= expected;
            t.row(vec![
                s.label().to_string(),
                d.label().to_string(),
                verdict(&outcome, expected),
            ]);
        }
    }
    println!("{t}");
    if !all_expected {
        return Err("some outcomes deviate from the paper's Table IV!".to_string());
    }
    Ok(ExitCode::SUCCESS)
}

/// Whether the paper expects `kind` to leak under `defense`: every gadget
/// leaks on Origin and none under the defenses, except the same-page
/// gadget, which evades the TPBuf filter (its accesses never form the
/// S-Pattern).
fn variant_leak_expected(kind: GadgetKind, defense: DefenseConfig) -> bool {
    defense == DefenseConfig::Origin
        || (kind == GadgetKind::V1SamePage && defense == DefenseConfig::CacheHitTpbuf)
}

fn cmd_variant(a: VariantArgs) -> CmdResult {
    let mut t = TextTable::with_columns(&["variant", "defense", "result"]);
    let mut all_expected = true;
    for d in defenses(a.defense) {
        let outcome = run_variant(a.kind, d);
        let expected = variant_leak_expected(a.kind, d) == outcome.leaked();
        all_expected &= expected;
        t.row(vec![
            format!("{:?}", a.kind),
            d.label().to_string(),
            verdict(&outcome, expected),
        ]);
    }
    println!("{t}");
    if !all_expected {
        return Err("some outcomes deviate from the paper's security analysis!".to_string());
    }
    Ok(ExitCode::SUCCESS)
}

/// `condspec leaks` — run the taint-oracle probes over the selected
/// gadget × defense cells and print the leak matrix. The paper's security
/// claim (Origin leaks through the cache on every gadget, the defenses on
/// none) is checked whenever the full Table IV corpus runs; subsets print
/// their cells without a verdict.
fn cmd_leaks(a: LeaksArgs) -> CmdResult {
    let corpus: Vec<GadgetKind> = match a.gadget {
        Some(kind) => vec![kind],
        // `--quick` keeps one conditional-branch gadget and one
        // return-stack gadget so the CI smoke exercises both predictor
        // paths without the full matrix.
        None if a.quick => vec![GadgetKind::V1, GadgetKind::Rsb],
        None => vec![
            GadgetKind::V1,
            GadgetKind::V2,
            GadgetKind::V4,
            GadgetKind::Rsb,
        ],
    };
    let ds = defenses(a.defense);
    // The claim quantifies over defenses, so it is checkable per gadget
    // row whenever every defense column is present.
    let claim_checkable = a.defense.is_none();

    let mut columns = vec!["gadget".to_string()];
    columns.extend(ds.iter().map(|d| d.label().to_string()));
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut matrix = TextTable::with_columns(&column_refs);
    let mut blind = TextTable::with_columns(&column_refs);

    let mut docs = Vec::new();
    let mut violated = false;
    for kind in &corpus {
        let mut row = vec![format!("{kind:?}")];
        let mut blind_row = vec![format!("{kind:?}")];
        for d in &ds {
            let outcome = leak_probe(*kind, *d);
            let leaks = outcome.leaks;
            let expected = *d == DefenseConfig::Origin;
            violated |= expected != outcome.cache_leaked();
            row.push(if outcome.cache_leaked() {
                format!("LEAKS({})", leaks.cache_survived())
            } else {
                "clean".to_string()
            });
            blind_row.push(format!(
                "tlb:{} tpbuf:{}",
                leaks.tlb_fills_survived, leaks.tpbuf_inserts_survived
            ));
            docs.push(Json::object(vec![
                ("variant", Json::from(kind.key())),
                ("defense", Json::from(d.key())),
                ("cache_leaked", Json::from(outcome.cache_leaked())),
                ("leaks", leak_report_to_json(&leaks)),
                ("leak_events", Json::from(outcome.events.len() as u64)),
            ]));
        }
        matrix.row(row);
        blind.row(blind_row);
    }

    println!("leak matrix — squash-surviving taint flows per defense (taint oracle):\n");
    println!("{matrix}");
    if claim_checkable {
        println!(
            "security claim (cache channels: Origin leaks on every gadget, every defense on none): {}",
            if violated { "VIOLATED" } else { "REPRODUCED" }
        );
    } else if violated {
        println!("warning: some cells deviate from the paper's security claim");
    }
    println!("\nblind spots — channels outside the defenses' filter (informational):\n");
    println!("{blind}");
    println!("TLB fills survive under every defense: address translation precedes");
    println!("the filter veto, so the defenses filter the cache, not the TLB.");

    if let Some(path) = &a.out {
        let doc = Json::object(vec![("cells", Json::Array(docs))]);
        write_file(path, &format!("{}\n", doc.render()))?;
        eprintln!("wrote {path}");
    }
    Ok(exit_code(!violated))
}

fn cmd_bench(a: BenchArgs) -> CmdResult {
    let spec = benchmark(&a.name)?;
    let program = Arc::new(build_program(&spec, a.iterations));
    let mut t = TextTable::with_columns(&[
        "defense",
        "cycles",
        "IPC",
        "L1D hit",
        "blocked",
        "S-mismatch",
    ]);
    let mut origin_cycles: Option<u64> = None;
    for d in defenses(a.defense) {
        let mut sim = Simulator::new(SimConfig::on_machine(d, *a.machine));
        sim.run_to_halt(&program, 500_000_000);
        let r = sim.report();
        let norm = match origin_cycles {
            Some(o) => format!("{} ({:.2}x)", r.cycles, r.cycles as f64 / o as f64),
            None => {
                if d == DefenseConfig::Origin {
                    origin_cycles = Some(r.cycles);
                }
                r.cycles.to_string()
            }
        };
        t.row(vec![
            d.label().to_string(),
            norm,
            format!("{:.2}", r.ipc),
            format!("{:.1}%", r.l1d_hit_rate * 100.0),
            format!("{:.1}%", r.blocked_rate * 100.0),
            format!("{:.1}%", r.s_pattern_mismatch_rate * 100.0),
        ]);
    }
    println!(
        "{} on {} ({} outer iterations):\n",
        a.name, a.machine.name, a.iterations
    );
    println!("{t}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(a: RunArgs) -> CmdResult {
    let file = &a.file;
    let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let program = condspec_isa::binfile::from_bytes(&bytes)
        .map_err(|e| format!("cannot parse {file}: {e}"))?;
    let program = Arc::new(program);
    let defense = a.defense.unwrap_or(DefenseConfig::Origin);
    let mut sim = Simulator::new(SimConfig::new(defense));
    match a.mode {
        RunMode::Detailed => {
            sim.load_program(program.clone());
            let result = sim.run(a.max_cycles);
            let r = sim.report();
            println!(
                "{file}: {} instructions, exit {:?} after {} cycles under {}",
                program.len(),
                result.exit,
                result.cycles,
                defense.label()
            );
            println!("IPC {:.2}, L1D hit {:.1}%", r.ipc, r.l1d_hit_rate * 100.0);
            print_nonzero_regs(&sim);
        }
        RunMode::Functional => {
            sim.load_program(program);
            let started = Instant::now();
            let result = sim
                .run_functional(condspec::SampledOptions::default().max_insts)
                .map_err(|e| format!("functional run failed: {e}"))?;
            let wall = started.elapsed().as_secs_f64();
            println!(
                "{file}: functional run retired {} instructions, exit {:?} in {wall:.3}s \
                 ({:.1} Minst/s)",
                result.retired,
                result.exit,
                result.retired as f64 / wall.max(1e-9) / 1e6
            );
            print_nonzero_regs(&sim);
        }
        RunMode::Sampled => run_sampled_file(&a, &mut sim, &program, defense)?,
    }
    Ok(ExitCode::SUCCESS)
}

/// `condspec run --mode sampled`: plan checkpoints, optionally file them
/// in the store, run a detailed window at each and print the stitched
/// whole-program estimate.
fn run_sampled_file(
    a: &RunArgs,
    sim: &mut Simulator,
    program: &Arc<Program>,
    defense: DefenseConfig,
) -> Result<(), String> {
    let file = &a.file;
    let workload = Path::new(file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(file)
        .to_string();
    let opts = condspec::SampledOptions {
        checkpoints: a.checkpoints,
        window: a.window,
        warmup: a.window / 10,
        max_cycles: a.max_cycles,
        ..condspec::SampledOptions::default()
    };
    let started = Instant::now();
    let plan = condspec::SampledPlan::build(sim, program, &workload, &opts)
        .map_err(|e| format!("sampled planning failed: {e}"))?;
    if let Some(root) = store_root_from(a.store, a.store_root.clone()) {
        let store = ResultStore::open(root);
        let fingerprint = condspec_engine::hash::code_fingerprint();
        for w in &plan.windows {
            let (machine, total) = (&w.checkpoint.machine, plan.total_insts);
            let identity =
                condspec_engine::checkpoint_identity(&workload, machine, total, w.start_inst);
            let key =
                condspec_engine::checkpoint_store_key(&workload, machine, total, w.start_inst);
            let label = format!("{workload}@{}", w.start_inst);
            store
                .insert_checkpoint(
                    &key,
                    &identity,
                    &label,
                    fingerprint,
                    &w.checkpoint.to_json(),
                )
                .map_err(|e| format!("cannot file checkpoint {label}: {e}"))?;
        }
        eprintln!(
            "filed {} checkpoints in {}",
            plan.windows.len(),
            store.root().display()
        );
    }
    let windows = plan
        .windows
        .iter()
        .map(|w| condspec::run_window(sim, w, program, &opts))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("sampled run failed: {e}"))?;
    let stitched = condspec::stitch_reports(plan.total_insts, &windows);
    let wall = started.elapsed().as_secs_f64();
    let mut t = TextTable::with_columns(&[
        "window",
        "start inst",
        "segment",
        "measured",
        "IPC",
        "L1D hit",
    ]);
    for w in &windows {
        t.row(vec![
            w.index.to_string(),
            w.start_inst.to_string(),
            w.segment_len.to_string(),
            w.report.committed.to_string(),
            format!("{:.2}", w.report.ipc),
            format!("{:.1}%", w.report.l1d_hit_rate * 100.0),
        ]);
    }
    println!(
        "{file}: sampled run under {} — {} instructions, {} windows of {} insts in {wall:.3}s",
        defense.label(),
        plan.total_insts,
        windows.len(),
        a.window
    );
    println!("{t}");
    println!(
        "stitched estimate: {} cycles, IPC {:.2}, L1D hit {:.1}%, blocked {:.1}%",
        stitched.cycles,
        stitched.ipc,
        stitched.l1d_hit_rate * 100.0,
        stitched.blocked_rate * 100.0
    );
    Ok(())
}

fn cmd_save(a: SaveArgs) -> CmdResult {
    let program = build_program(&benchmark(&a.name)?, a.iterations);
    let bytes = condspec_isa::binfile::to_bytes(&program);
    std::fs::write(&a.file, &bytes).map_err(|e| format!("cannot write {}: {e}", a.file))?;
    println!(
        "wrote {}: {} instructions, {} data segments, {} bytes",
        a.file,
        program.len(),
        program.data().len(),
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(a: TraceArgs) -> CmdResult {
    let defense = a.defense.unwrap_or(DefenseConfig::CacheHitTpbuf);
    let trace = traced_variant_round(a.kind, defense, a.events);
    let rendered = match a.format {
        TraceFormat::Text => format!(
            "{:?} attack round under {} — last {} pipeline events:\n\n{trace}",
            a.kind,
            defense.label(),
            trace.len()
        ),
        TraceFormat::Perfetto => {
            let doc = condspec_pipeline::perfetto::to_chrome_trace(&trace);
            format!("{}\n", doc.render())
        }
    };
    if let Some(path) = write_or_print(a.out.as_deref(), &rendered)? {
        eprintln!(
            "wrote {path}: {} events, {} dropped",
            trace.len(),
            trace.dropped()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeseries(a: TimeseriesArgs) -> CmdResult {
    let spec = benchmark(&a.name)?;
    let defense = a.defense.unwrap_or(DefenseConfig::CacheHitTpbuf);
    let program = Arc::new(build_program(&spec, a.iterations));
    let mut sim = Simulator::new(SimConfig::on_machine(defense, *a.machine));
    sim.core_mut().enable_sampler(a.window, a.rows);
    sim.run_to_halt(&program, 500_000_000);
    let sampler = sim.core_mut().disable_sampler().expect("sampler enabled");
    let rendered = match a.format {
        SeriesFormat::Json => {
            let doc = Json::object(vec![
                ("benchmark", Json::from(a.name.as_str())),
                ("defense", Json::from(defense.key())),
                ("machine", Json::from(a.machine.name)),
                ("iterations", Json::from(a.iterations)),
                ("timeseries", sampler.to_json()),
                ("metrics", sim.metrics().to_json()),
            ]);
            format!("{}\n", doc.render())
        }
        SeriesFormat::Csv => sampler.to_csv(),
    };
    if let Some(path) = write_or_print(a.out.as_deref(), &rendered)? {
        eprintln!(
            "wrote {path}: {} windows of {} cycles, {} dropped",
            sampler.rows().len(),
            a.window,
            sampler.dropped()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(a: ReportArgs) -> CmdResult {
    let root = PathBuf::from(
        a.root
            .unwrap_or_else(|| condspec_engine::DEFAULT_ROOT.to_string()),
    );
    let store = store_root_from(a.store, a.store_root).map(ResultStore::open);
    let report = condspec_engine::load_sweep_report_with_store(&root, &a.sweep_id, store.as_ref())
        .map_err(|e| format!("report: {e}"))?;
    println!("{}", report.sweep.render(&report.results));
    println!(
        "sweep {}: {} artifacts, {} failed, {} missing",
        report.sweep_id,
        report.results.len(),
        report.failed.len(),
        report.missing.len()
    );
    for (hash, label) in &report.failed {
        eprintln!("failed job {hash} ({label})");
    }
    for (hash, label) in &report.missing {
        eprintln!("missing job {hash} ({label})");
    }
    if let Some(t) = &report.telemetry {
        if let (Some(wall), Some(util), Some(workers)) = (
            t.get("total_wall_ms").and_then(Json::as_u64),
            t.get("utilization").and_then(Json::as_f64),
            t.get("workers").and_then(Json::as_u64),
        ) {
            println!(
                "telemetry: ran on {workers} workers in {:.1}s at {:.0}% utilization",
                wall as f64 / 1000.0,
                util * 100.0
            );
        }
    }
    Ok(exit_code(report.failed.is_empty()))
}

fn cmd_sweep(a: SweepArgs) -> CmdResult {
    let sweep = sweep_by_name(&a.name)?.scaled(a.iters, a.warmup);
    let name = &a.name;
    if let Some(addr) = &a.attach {
        return run_attached_sweep(addr, &sweep);
    }
    // Any sharding knob switches the scheduler to claim-based
    // draining, which needs a store as the shared substrate.
    let claim_mode = a.shards > 1 || a.owner.is_some() || a.steal_after_ms.is_some();
    let store_path = store_root_from(a.store || claim_mode, a.store_root.clone());
    let owner = a.owner.clone().unwrap_or_else(ClaimOptions::default_owner);
    let mut opts = condspec_engine::SweepOptions {
        workers: a.jobs,
        resume: a.resume,
        quiet: a.quiet,
        progress: a.progress,
        telemetry: a.telemetry,
        store: store_path.clone(),
        claim: claim_mode.then(|| claim_options(owner.clone(), a.steal_after_ms)),
        ..Default::default()
    };
    if let Some(root) = &a.root {
        opts.root = root.into();
    }
    // The coordinator is shard 0; the rest are spawned `condspec
    // worker` children draining the same store root.
    let children = match &store_path {
        Some(store_dir) if a.shards > 1 => spawn_shards(&a, store_dir, &owner)?,
        _ => Vec::new(),
    };
    let outcome = match condspec_engine::run_sweep(&sweep, &opts) {
        Ok(o) => o,
        Err(e) => {
            for mut child in children {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Err(format!("sweep {name} failed: {e}"));
        }
    };
    for (shard, mut child) in (1..).zip(children) {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("sweep {name}: worker shard {shard} exited with {status}"),
            Err(e) => eprintln!("sweep {name}: cannot wait for worker shard {shard}: {e}"),
        }
    }
    println!("{}", sweep.render(&outcome.results));
    println!(
        "sweep {}: {} executed, {} store hits, {} skipped, {} failed — artifacts in {}",
        outcome.sweep_id,
        outcome.executed,
        outcome.store_hits,
        outcome.skipped,
        outcome.failed.len(),
        outcome.dir.display()
    );
    if outcome.remote > 0 {
        println!(
            "sweep {}: {} of the store hits were simulated by other shards",
            outcome.sweep_id, outcome.remote
        );
    }
    for (hash, label, error) in &outcome.failed {
        eprintln!("failed job {hash} ({label}): {error}");
    }
    Ok(exit_code(outcome.failed.is_empty()))
}

/// Spawns `condspec worker` shards 1..`shards` over `store_dir`.
fn spawn_shards(a: &SweepArgs, store_dir: &Path, owner: &str) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("sweep {}: cannot locate own executable: {e}", a.name))?;
    (1..a.shards)
        .map(|shard| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("worker")
                .arg(&a.name)
                .arg("--store-root")
                .arg(store_dir)
                .arg("--owner")
                .arg(format!("{owner}-{shard}"));
            if a.jobs > 0 {
                cmd.arg("--jobs").arg(a.jobs.to_string());
            }
            for (flag, value) in [
                ("--steal-after-ms", a.steal_after_ms),
                ("--iters", a.iters),
                ("--warmup", a.warmup),
            ] {
                if let Some(v) = value {
                    cmd.arg(flag).arg(v.to_string());
                }
            }
            cmd.stdout(std::process::Stdio::null());
            cmd.spawn()
                .map_err(|e| format!("sweep {}: cannot spawn worker shard {shard}: {e}", a.name))
        })
        .collect()
}

fn cmd_worker(a: WorkerArgs) -> CmdResult {
    let owner = a.owner.unwrap_or_else(ClaimOptions::default_owner);
    if let Some(addr) = &a.attach {
        return run_remote_worker(addr, &owner, a.poll_ms, a.drain);
    }
    let name = a.sweep.expect("parser requires a sweep without --attach");
    let scaled = sweep_by_name(&name)?.scaled(a.iters, a.warmup);
    let store = ResultStore::open(store_path(a.store_root));
    let claim = claim_options(owner.clone(), a.steal_after_ms);
    let programs = Arc::new(condspec_engine::ProgramCache::new());
    let total = scaled.jobs.len();
    let started = Instant::now();
    let mut done = 0usize;
    let results = condspec_engine::run_jobs(
        &scaled.jobs,
        a.jobs,
        &programs,
        Some((&store, Some(&claim))),
        |slot, job| {
            done += 1;
            let state = match (&job.outcome, job.source) {
                (Err(_), _) => "FAILED".to_string(),
                (Ok(_), condspec_engine::JobSource::Simulated) => "simulated".to_string(),
                (Ok(_), _) => match &job.origin {
                    Some(origin) => format!("store@{origin}"),
                    None => "store".to_string(),
                },
            };
            eprintln!(
                "worker {owner}: [{done}/{total}] {} [{state}]",
                scaled.jobs[slot].label()
            );
        },
    );
    let (mut simulated, mut via_store, mut failed) = (0usize, 0usize, Vec::new());
    for (i, job) in results.iter().enumerate() {
        match (&job.outcome, job.source) {
            (Err(error), _) => failed.push((i, error)),
            (Ok(_), condspec_engine::JobSource::Store) => via_store += 1,
            (Ok(_), _) => simulated += 1,
        }
    }
    println!(
        "worker {owner}: {total} jobs — {simulated} simulated, {via_store} via store, \
         {} failed in {:.1}s",
        failed.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", store.summary());
    println!("{}", store.claims_summary());
    for (i, error) in &failed {
        eprintln!("failed job {} ({}): {error}", i, scaled.jobs[*i].label());
    }
    Ok(exit_code(failed.is_empty()))
}

fn cmd_store(a: StoreArgs) -> CmdResult {
    let store = ResultStore::open(store_path(a.root));
    match a.action {
        StoreAction::Stats => {
            let stats = store.stats().map_err(|e| format!("store stats: {e}"))?;
            println!("{}", stats.summary(store.root()));
            // Machine-readable copy for CI artifact capture.
            let mut registry = condspec_stats::MetricsRegistry::new();
            registry.set_counter("store.entries", stats.entries);
            registry.set_counter("store.bytes", stats.bytes);
            registry.set_counter("store.checkpoints", stats.checkpoints);
            registry.set_counter("store.checkpoint_bytes", stats.checkpoint_bytes);
            registry.set_counter("store.leases", stats.leases);
            registry.set_counter("store.stray_tmp", stats.stray_tmp);
            println!("{}", registry.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        StoreAction::Verify => {
            let report = store.verify().map_err(|e| format!("store verify: {e}"))?;
            println!(
                "store verify: {} checked, {} ok, {} bad, {} leases at {}",
                report.checked,
                report.ok,
                report.bad.len(),
                report.leases,
                store.root().display()
            );
            for (path, reason) in &report.bad {
                eprintln!("bad entry {}: {reason}", path.display());
            }
            Ok(exit_code(report.is_clean()))
        }
        StoreAction::Gc => {
            let fingerprint = condspec_engine::hash::code_fingerprint();
            let report = store
                .gc(fingerprint)
                .map_err(|e| format!("store gc: {e}"))?;
            println!(
                "store gc: kept {}, removed {}, pruned {} stale leases, freed {} bytes at {}",
                report.kept,
                report.removed,
                report.stale_leases,
                report.bytes_freed,
                store.root().display()
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_serve(a: ServeArgs) -> CmdResult {
    let config = condspec_serve::ServeConfig {
        addr: a.addr,
        workers: a.jobs,
        runs_root: PathBuf::from(
            a.root
                .unwrap_or_else(|| condspec_engine::DEFAULT_ROOT.to_string()),
        ),
        store_root: store_root_from(!a.no_store, a.store_root),
    };
    let server = condspec_serve::Server::bind(&config)
        .map_err(|e| format!("serve: cannot bind {}: {e}", config.addr))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("serve: no local address: {e}"))?;
    // Scripts poll this exact line for the bound port (ephemeral with
    // --addr host:0), so flush it now.
    println!("condspec-serve listening on http://{local}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    match config.store_root.as_deref() {
        Some(store) => eprintln!("store: {}", store.display()),
        None => eprintln!("store: disabled"),
    }
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_perf(a: PerfArgs) -> CmdResult {
    use condspec_bench::{perf, stage};
    let opts = perf::PerfOptions {
        machine: *a.machine,
        quick: a.quick,
        only: a.only,
    };
    let cells = perf::run_matrix(&opts);
    let report = publish(&perf::DOC, &perf::to_json(&opts, &cells), a.out.as_deref())?;
    let mut t = TextTable::with_columns(&[
        "workload",
        "defense",
        "mode",
        "sim cycles",
        "committed",
        "Mcycles/s",
        "Minst/s",
    ]);
    for c in &cells {
        t.row(vec![
            c.workload.to_string(),
            c.defense.label().to_string(),
            c.mode.key().to_string(),
            c.sim_cycles.to_string(),
            c.committed.to_string(),
            format!("{:.2}", c.cycles_per_sec() / 1e6),
            format!("{:.2}", c.committed_per_sec() / 1e6),
        ]);
    }
    eprintln!("simulator throughput on {}:\n", opts.machine.name);
    eprintln!("{t}");

    let host = HostInfo::current();
    let skip = std::env::var_os("CONDSPEC_SKIP_PERF_GUARD").is_some();
    let mut passed = true;
    if let Some(path) = &a.compare {
        passed &= guard(&perf::DOC, &report, path, &host, skip)?;
    }
    if a.stages {
        let stage_opts = stage::StageOptions { quick: a.quick };
        let stage_cells = stage::run_suite(&stage_opts);
        let stage_report = publish(
            &stage::DOC,
            &stage::to_json(&stage_opts, &stage_cells),
            a.stage_out.as_deref(),
        )?;
        let mut t = TextTable::with_columns(&["stage", "ops", "checksum", "wall s", "Mops/s"]);
        for c in &stage_cells {
            t.row(vec![
                c.stage.to_string(),
                c.ops.to_string(),
                format!("{:#018x}", c.checksum),
                format!("{:.3}", c.wall_seconds),
                format!("{:.2}", c.ops_per_sec() / 1e6),
            ]);
        }
        eprintln!("per-stage microbenchmarks:\n");
        eprintln!("{t}");
        if let Some(path) = &a.stage_baseline {
            passed &= guard(&stage::DOC, &stage_report, path, &host, skip)?;
        }
    }
    Ok(exit_code(passed))
}

/// Round-trips a fresh benchmark document through the parser and its
/// kind's validation (CI relies on the exit code), then writes it to
/// `out` or stdout. Returns the reparsed document.
fn publish(kind: &DocKind, doc: &Json, out: Option<&str>) -> Result<Json, String> {
    let rendered = format!("{}\n", doc.render());
    let reparsed = Json::parse(&rendered)
        .map_err(|e| format!("{} JSON does not round-trip: {e}", kind.name))?;
    (kind.validate)(&reparsed)
        .map_err(|e| format!("{} output failed validation: {e}", kind.name))?;
    if let Some(path) = write_or_print(out, &rendered)? {
        println!("wrote {path}");
    }
    Ok(reparsed)
}

/// The perf guard for one document: compares `report` against the
/// baseline at `baseline_path`, prints the per-cell table and the
/// verdict to stderr, and returns whether the report passed.
fn guard(
    kind: &DocKind,
    report: &Json,
    baseline_path: &str,
    host: &HostInfo,
    skip_throughput: bool,
) -> Result<bool, String> {
    let name = kind.name;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot load {name} baseline {baseline_path}: {e}"))?;
    let comparison = compare(kind, report, &baseline, host, skip_throughput)
        .map_err(|e| format!("cannot compare against {baseline_path}: {e}"))?;
    let mut columns: Vec<String> = kind
        .key
        .iter()
        .map(|(field, _)| field.to_string())
        .collect();
    columns.extend([
        "work".to_string(),
        format!("base {}", kind.rate_unit),
        format!("now {}", kind.rate_unit),
        "ratio".to_string(),
    ]);
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = TextTable::with_columns(&columns);
    for c in &comparison.cells {
        let mut row = c.key.clone();
        row.extend([
            if c.work_matches() {
                "identical".to_string()
            } else {
                c.work_delta()
            },
            format!("{:.2}", c.rate.0 / 1e6),
            format!("{:.2}", c.rate.1 / 1e6),
            format!("{:.2}x", c.throughput_ratio()),
        ]);
        t.row(row);
    }
    eprintln!("{name} comparison against {baseline_path}:\n");
    eprintln!("{t}");
    eprintln!("{}", comparison.throughput_note);
    if comparison.passed() {
        eprintln!("{name} guard ok: all {} cells pass", comparison.cells.len());
    }
    for failure in &comparison.failures {
        eprintln!("{name} regression: {failure}");
    }
    Ok(comparison.passed())
}

/// `condspec sweep --attach` — submit the sweep to a running daemon as
/// a distributed run, poll its status until it finishes (printing
/// progress transitions to stderr), then print the rendered report.
fn run_attached_sweep(addr: &str, sweep: &Sweep) -> CmdResult {
    use condspec_serve::http::{client_get, client_post};
    let name = sweep.name;
    let mut fields = vec![
        ("sweep", Json::from(name)),
        ("distributed", Json::from(true)),
    ];
    let (iters, warmup) = sweep.scale();
    if let Some(i) = iters {
        fields.push(("iters", Json::from(i)));
    }
    if let Some(w) = warmup {
        fields.push(("warmup", Json::from(w)));
    }
    let (status, text) = client_post(addr, "/api/sweeps", &Json::object(fields).render())
        .map_err(|e| format!("sweep {name}: cannot reach {addr}: {e}"))?;
    if status != 202 {
        return Err(format!(
            "sweep {name}: daemon rejected the submission ({status}): {text}"
        ));
    }
    let id = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("submission").and_then(Json::as_u64))
        .ok_or_else(|| format!("sweep {name}: malformed submission response: {text}"))?;
    eprintln!("sweep {name}: submitted to http://{addr} as distributed submission {id}");
    let mut last = String::new();
    loop {
        let (status, text) = client_get(addr, &format!("/api/sweeps/{id}"))
            .map_err(|e| format!("sweep {name}: lost the daemon at {addr}: {e}"))?;
        if status != 200 {
            return Err(format!(
                "sweep {name}: status poll failed ({status}): {text}"
            ));
        }
        let doc =
            Json::parse(&text).map_err(|_| format!("sweep {name}: malformed status: {text}"))?;
        let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut line = format!(
            "sweep {name}: {}/{} done — {} simulated, {} store hits, {} failed",
            field("done"),
            field("total"),
            field("simulated"),
            field("store_hits"),
            field("failed"),
        );
        if let Some(workers) = doc.get("workers").and_then(Json::as_array) {
            let shares: Vec<String> = workers
                .iter()
                .map(|w| {
                    format!(
                        "simulated@{}: {}",
                        w.get("owner").and_then(Json::as_str).unwrap_or("?"),
                        w.get("simulated").and_then(Json::as_u64).unwrap_or(0)
                    )
                })
                .collect();
            line.push_str(&format!(" ({})", shares.join(", ")));
        }
        if line != last {
            eprintln!("{line}");
            last = line;
        }
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => break,
            Some("error") => {
                let message = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                return Err(format!("sweep {name}: daemon run failed: {message}"));
            }
            _ => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    match client_get(addr, &format!("/api/sweeps/{id}/report")) {
        Ok((200, report)) => {
            println!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        Ok((status, text)) => Err(format!(
            "sweep {name}: cannot fetch report ({status}): {text}"
        )),
        Err(e) => Err(format!("sweep {name}: cannot fetch report: {e}")),
    }
}

/// `condspec worker --attach` — pull jobs from a daemon's work queue
/// over HTTP: claim, simulate locally (panic-isolated, program-cached),
/// report the artifact, repeat. A heartbeat thread renews the claim
/// while a job runs so the daemon doesn't requeue it mid-simulation;
/// heartbeats that fail or are refused are counted in the final summary.
fn run_remote_worker(addr: &str, owner: &str, poll_ms: u64, drain: bool) -> CmdResult {
    use condspec_serve::http::client_post;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let programs = Arc::new(condspec_engine::ProgramCache::new());
    let failed_heartbeats = Arc::new(AtomicU64::new(0));
    let mut completed = 0u64;
    let mut job_failures = 0u64;
    eprintln!("worker {owner}: attached to http://{addr}");
    loop {
        let claim_body = Json::object(vec![("owner", Json::from(owner))]).render();
        let text = match client_post(addr, "/api/work/claim", &claim_body) {
            Ok((200, text)) => text,
            Ok((status, text)) => {
                return Err(format!("worker {owner}: claim failed ({status}): {text}"))
            }
            Err(e) => return Err(format!("worker {owner}: cannot reach {addr}: {e}")),
        };
        let doc = Json::parse(&text)
            .map_err(|_| format!("worker {owner}: malformed claim response: {text}"))?;
        if doc.get("idle").and_then(Json::as_bool) == Some(true) {
            let active = doc.get("active").and_then(Json::as_u64).unwrap_or(0);
            if drain && active == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
            continue;
        }
        let (Some(submission), Some(index), Some(sweep_name), Some(key)) = (
            doc.get("submission").and_then(Json::as_u64),
            doc.get("index").and_then(Json::as_u64),
            doc.get("sweep").and_then(Json::as_str),
            doc.get("key").and_then(Json::as_str),
        ) else {
            return Err(format!("worker {owner}: malformed work descriptor: {text}"));
        };
        let label = doc.get("label").and_then(Json::as_str).unwrap_or("?");
        let claim_timeout_ms = doc
            .get("claim_timeout_ms")
            .and_then(Json::as_u64)
            .unwrap_or(60_000);
        let iters = doc.get("iters").and_then(Json::as_u64);
        let warmup = doc.get("warmup").and_then(Json::as_u64);
        let identity = || {
            vec![
                ("owner", Json::from(owner)),
                ("submission", Json::from(submission)),
                ("index", Json::from(index)),
            ]
        };

        // Reconstruct the job from (sweep, index, scaling) and verify
        // its store key, so a coordinator and worker built from
        // different code can never silently run the wrong job.
        let job = Sweep::by_name(sweep_name)
            .ok_or_else(|| format!("unknown sweep `{sweep_name}`"))
            .and_then(|sweep| {
                let scaled = sweep.scaled(iters, warmup);
                scaled
                    .jobs
                    .get(index as usize)
                    .cloned()
                    .ok_or_else(|| format!("index {index} out of range for `{sweep_name}`"))
            })
            .and_then(|job| {
                if job.store_key() == key {
                    Ok(job)
                } else {
                    Err(format!(
                        "job key mismatch for `{label}` (coordinator {key}, worker {}) — \
                         version skew between coordinator and worker?",
                        job.store_key()
                    ))
                }
            });
        let outcome = match job {
            Ok(job) => {
                // Renew the claim while the job simulates.
                let stop = Arc::new(AtomicBool::new(false));
                let beat = Duration::from_millis((claim_timeout_ms / 4).max(50));
                let heartbeat = {
                    let stop = Arc::clone(&stop);
                    let failed_heartbeats = Arc::clone(&failed_heartbeats);
                    let addr = addr.to_string();
                    let body = Json::object(identity()).render();
                    std::thread::spawn(move || {
                        let mut since = Instant::now();
                        while !stop.load(Ordering::Relaxed) {
                            if since.elapsed() >= beat {
                                let reply = client_post(&addr, "/api/work/heartbeat", &body);
                                if !matches!(reply, Ok((200, _))) {
                                    failed_heartbeats.fetch_add(1, Ordering::Relaxed);
                                }
                                since = Instant::now();
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    })
                };
                let mut results = condspec_engine::run_jobs(
                    std::slice::from_ref(&job),
                    1,
                    &programs,
                    None,
                    |_, _| {},
                );
                stop.store(true, Ordering::Relaxed);
                heartbeat
                    .join()
                    .expect("the heartbeat thread does not panic");
                results.remove(0).outcome
            }
            Err(message) => Err(message),
        };
        let mut fields = identity();
        let failed = outcome.is_err();
        match outcome {
            Ok(artifact) => fields.push(("artifact", artifact)),
            Err(message) => fields.push(("error", Json::from(message.as_str()))),
        }
        let ack = match client_post(addr, "/api/work/result", &Json::object(fields).render()) {
            Ok((200, ack)) => ack,
            Ok((status, text)) => {
                return Err(format!(
                    "worker {owner}: result rejected ({status}): {text}"
                ))
            }
            Err(e) => return Err(format!("worker {owner}: cannot report result: {e}")),
        };
        completed += 1;
        job_failures += u64::from(failed);
        let state = if failed { "FAILED" } else { "done" };
        match Json::parse(&ack)
            .ok()
            .and_then(|doc| doc.get("remaining").and_then(Json::as_u64))
        {
            Some(n) => eprintln!("worker {owner}: {label} {state} ({n} remaining)"),
            None => eprintln!("worker {owner}: {label} {state}"),
        }
    }
    println!(
        "worker {owner}: {completed} jobs completed, {job_failures} failed, {} heartbeats failed",
        failed_heartbeats.load(Ordering::Relaxed)
    );
    Ok(ExitCode::SUCCESS)
}

fn verdict(outcome: &condspec_attacks::AttackOutcome, matches_paper: bool) -> String {
    let base = match outcome.recovered {
        Some(b) if outcome.leaked() => format!("LEAKED byte {b}"),
        Some(b) => format!("wrong byte {b}"),
        None if outcome.candidates.is_empty() => "blocked".to_string(),
        None => format!("ambiguous ({})", outcome.candidates.len()),
    };
    if matches_paper {
        base
    } else {
        format!("{base}  [UNEXPECTED]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_expectation_follows_the_paper() {
        for kind in GadgetKind::ALL {
            assert!(
                variant_leak_expected(kind, DefenseConfig::Origin),
                "{kind:?} leaks on Origin"
            );
            assert!(!variant_leak_expected(kind, DefenseConfig::Baseline));
            assert!(!variant_leak_expected(kind, DefenseConfig::CacheHit));
        }
        // Only the same-page gadget evades the TPBuf filter.
        for kind in GadgetKind::ALL {
            assert_eq!(
                variant_leak_expected(kind, DefenseConfig::CacheHitTpbuf),
                kind == GadgetKind::V1SamePage,
                "{kind:?} under Cache-hit + TPBuf"
            );
        }
    }
}
