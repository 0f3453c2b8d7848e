//! Simulator-throughput benchmark (`condspec perf`).
//!
//! Measures how fast the simulator itself runs — simulated cycles per
//! wall-clock second and committed instructions per wall-clock second —
//! over a fixed, deterministic workload matrix:
//!
//! * **counting-loop** — a register-only countdown loop: peak
//!   fetch/dispatch/issue/commit pressure with no memory traffic.
//! * **pointer-chase** — a permuted pointer ring larger than the L1:
//!   long-latency loads keep the IQ occupied, exercising the security
//!   dependence matrix and the blocked-wakeup path under the defenses.
//! * **spectre-gadget** — the Figure 5 attack-round shape: repeated
//!   `load_program` + train/trigger runs of the V1 gadget, exercising
//!   the program-load/reset path, squashes, and the filters.
//!
//! Each workload runs under Origin, Cache-hit, and Cache-hit + TPBuf.
//! The simulated work per cell is deterministic (identical cycle and
//! commit counts on every host); only the wall-clock fields vary. Every
//! cell is timed several times and the fastest wall time is reported —
//! the minimum over repeats of a deterministic computation estimates
//! the code's speed, not the host scheduler's mood. The result
//! serializes as the `condspec-simspeed-v1` JSON schema recorded in
//! `BENCH_simspeed.json`.
//!
//! Beyond the detailed matrix, the report carries **functional** rows
//! (architectural-only execution — the sampled-run fast-forward engine)
//! and **sampled** rows (the full SimPoint-style pipeline: functional
//! fast-forward, detailed windows, weighted stitch), tagged with a
//! per-cell `mode` field. A detailed cell carries no `mode` field, so
//! baselines from before the field still compare.

use crate::guard::DocKind;
use condspec::{run_sampled, DefenseConfig, MachineConfig, SampledOptions, SimConfig, Simulator};
use condspec_isa::{AluOp, BranchCond, Program, ProgramBuilder, Reg};
use condspec_stats::{Json, SplitMix64};
use condspec_workloads::gadgets::SpectreGadget;
use condspec_workloads::GadgetKind;
use std::time::Instant;

/// Schema identifier embedded in the JSON output.
pub const SCHEMA: &str = "condspec-simspeed-v1";

/// Defenses measured per workload (the ISSUE's matrix; Baseline is
/// covered transitively — its hot path is a strict subset of Cache-hit).
pub const DEFENSES: [DefenseConfig; 3] = [
    DefenseConfig::Origin,
    DefenseConfig::CacheHit,
    DefenseConfig::CacheHitTpbuf,
];

/// Base address of the counting/pointer-chase code.
const CODE_BASE: u64 = 0x0040_0000;
/// Base of the pointer ring (page-aligned, far from gadget layouts).
const RING_BASE: u64 = 0x0800_0000;
/// Pointer-ring slots: 16 Ki × 8 B = 128 KiB, twice the 64 KiB L1D.
const RING_SLOTS: usize = 16 * 1024;
/// Cycle budget per gadget run (same as the attack harness).
const GADGET_RUN_BUDGET: u64 = 500_000;

/// The workload names of the matrix, in run order.
pub const WORKLOADS: [&str; 3] = ["counting-loop", "pointer-chase", "spectre-gadget"];

/// A `--only <workload>[:<defense>]` cell filter: restricts the matrix
/// to one workload, optionally to a single defense column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFilter {
    /// The selected workload (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// The selected defense; `None` keeps all three columns.
    pub defense: Option<DefenseConfig>,
}

impl CellFilter {
    /// Parses `<workload>[:<defense>]`, validating both names.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (workload_name, defense_key) = match spec.split_once(':') {
            Some((w, d)) => (w, Some(d)),
            None => (spec, None),
        };
        let workload = WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == workload_name)
            .ok_or_else(|| {
                format!(
                    "unknown workload `{workload_name}` (expected one of: {})",
                    WORKLOADS.join(", ")
                )
            })?;
        let defense = defense_key
            .map(|key| {
                DEFENSES
                    .iter()
                    .copied()
                    .find(|d| d.key() == key)
                    .ok_or_else(|| {
                        let keys: Vec<_> = DEFENSES.iter().map(|d| d.key()).collect();
                        format!(
                            "unknown defense `{key}` (expected one of: {})",
                            keys.join(", ")
                        )
                    })
            })
            .transpose()?;
        Ok(CellFilter { workload, defense })
    }

    /// Whether the filter keeps the `(workload, defense)` cell.
    pub fn keeps(&self, workload: &str, defense: DefenseConfig) -> bool {
        self.workload == workload && self.defense.map(|d| d == defense).unwrap_or(true)
    }
}

/// Workload sizing for one `condspec perf` invocation.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Machine preset the matrix runs on.
    pub machine: MachineConfig,
    /// Quick mode: ~50× less simulated work per cell (CI smoke).
    pub quick: bool,
    /// Restricts the matrix to one workload (optionally one defense).
    pub only: Option<CellFilter>,
}

impl PerfOptions {
    /// Full-size run on the paper-default machine.
    pub fn paper_default() -> Self {
        PerfOptions {
            machine: MachineConfig::paper_default(),
            quick: false,
            only: None,
        }
    }

    fn counting_iterations(&self) -> u64 {
        if self.quick {
            6_000
        } else {
            300_000
        }
    }

    fn chase_iterations(&self) -> u64 {
        if self.quick {
            3_000
        } else {
            150_000
        }
    }

    fn gadget_rounds(&self) -> u32 {
        if self.quick {
            2
        } else {
            400
        }
    }

    fn sampled_checkpoints(&self) -> usize {
        if self.quick {
            4
        } else {
            8
        }
    }

    fn sampled_window(&self) -> u64 {
        if self.quick {
            2_000
        } else {
            20_000
        }
    }

    /// Detailed warmup before each measured window. The full-size
    /// pointer chase walks a 16K-slot ring, so a warmup that is a
    /// fraction of the window leaves the cache cold and the stitched
    /// estimate ~5× too slow; one ring pass (~50K instructions) fixes
    /// the bias. Quick-mode segments are shorter than this, and
    /// `run_window` clamps warmup into the segment, so the large value
    /// is safe in both modes.
    fn sampled_warmup(&self) -> u64 {
        if self.quick {
            self.sampled_window() / 10
        } else {
            50_000
        }
    }

    /// Timed repetitions per cell; the fastest wall time is reported.
    ///
    /// The simulated work is deterministic, so repeats only re-measure
    /// the host: taking the minimum is the standard noise-robust
    /// estimator for "how fast can this code run", and it keeps the CI
    /// regression guard from tripping on scheduler jitter. The repeats
    /// double as a determinism check — every repeat must reproduce the
    /// cell's cycle and commit counts exactly.
    fn cell_repeats(&self) -> u32 {
        3
    }
}

/// How a perf cell simulates its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// Cycle-accurate out-of-order pipeline.
    Detailed,
    /// Architectural-only execution (no cycle model; `sim_cycles` is 0).
    Functional,
    /// Functional fast-forward + detailed windows + weighted stitch;
    /// `sim_cycles` is the stitched whole-program estimate and
    /// `committed_inst` the whole program the run represents.
    Sampled,
}

impl CellMode {
    /// The cell's `mode` key (`detailed` / `functional` / `sampled`).
    pub fn key(self) -> &'static str {
        match self {
            CellMode::Detailed => "detailed",
            CellMode::Functional => "functional",
            CellMode::Sampled => "sampled",
        }
    }
}

/// One workload × defense measurement.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// Workload name (`counting-loop`, `pointer-chase`, `spectre-gadget`).
    pub workload: &'static str,
    /// Defense environment.
    pub defense: DefenseConfig,
    /// Simulation mode of this cell.
    pub mode: CellMode,
    /// Simulated cycles (deterministic; 0 for functional cells).
    pub sim_cycles: u64,
    /// Committed instructions (deterministic).
    pub committed: u64,
    /// Wall-clock seconds the cell took (host-dependent).
    pub wall_seconds: f64,
}

impl PerfCell {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds.max(1e-9)
    }

    /// Committed instructions per wall-clock second.
    pub fn committed_per_sec(&self) -> f64 {
        self.committed as f64 / self.wall_seconds.max(1e-9)
    }
}

/// A register-only countdown loop (no memory traffic).
fn counting_loop(iterations: u64) -> Program {
    let mut b = ProgramBuilder::new(CODE_BASE);
    b.li(Reg::R1, iterations);
    b.li(Reg::R2, 0x1234_5678);
    b.li(Reg::R3, 7);
    let top = b.here();
    // Eight-deep ALU body: enough ILP to keep the issue stage busy.
    b.alu(AluOp::Add, Reg::R4, Reg::R2, Reg::R3)
        .alu(AluOp::Xor, Reg::R5, Reg::R4, Reg::R2)
        .alu(AluOp::Shl, Reg::R6, Reg::R5, Reg::R3)
        .alu(AluOp::Add, Reg::R7, Reg::R6, Reg::R4)
        .alu(AluOp::Or, Reg::R8, Reg::R7, Reg::R5)
        .alu(AluOp::Sub, Reg::R9, Reg::R8, Reg::R6)
        .alu(AluOp::Xor, Reg::R2, Reg::R9, Reg::R7)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch(BranchCond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    b.build().expect("counting loop assembles")
}

/// A permuted pointer ring over a region larger than the L1D: each load
/// depends on the previous one, so the window fills with unissued work.
fn pointer_chase(iterations: u64) -> Program {
    // Deterministic single-cycle permutation (Sattolo's algorithm).
    let mut next: Vec<usize> = (0..RING_SLOTS).collect();
    let mut rng = SplitMix64::new(0x5eed_cafe_f00d_0001);
    let mut idx: Vec<usize> = (0..RING_SLOTS).collect();
    for i in (1..RING_SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        idx.swap(i, j);
    }
    for w in 0..RING_SLOTS {
        next[idx[w]] = idx[(w + 1) % RING_SLOTS];
    }
    let words: Vec<u64> = next.iter().map(|&n| RING_BASE + 8 * n as u64).collect();

    let mut b = ProgramBuilder::new(CODE_BASE);
    b.li(Reg::R1, iterations);
    b.li(Reg::R2, RING_BASE + 8 * idx[0] as u64);
    let top = b.here();
    b.load(Reg::R2, Reg::R2, 0)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch(BranchCond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    b.data_u64s(RING_BASE, &words);
    b.build().expect("pointer chase assembles")
}

fn run_to_halt_cell(program: &std::sync::Arc<Program>, config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let result = sim.run_to_halt(program, u64::MAX);
    (result.cycles, result.committed)
}

/// The attack-round shape: repeated program loads with train/trigger
/// runs, flushing the bounds word before each malicious run.
fn run_gadget_cell(gadget: &SpectreGadget, config: SimConfig, rounds: u32) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let (mut cycles, mut committed) = (0u64, 0u64);
    for _ in 0..rounds {
        for _ in 0..2 {
            sim.load_program(gadget.program.clone());
            sim.write_memory(gadget.input_addr, gadget.train_input, 8);
            let r = sim.run(GADGET_RUN_BUDGET);
            cycles += r.cycles;
            committed += r.committed;
        }
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
        if let Some(len) = gadget.len_addr {
            let pa = sim.core().page_table().translate(len);
            sim.core_mut().hierarchy_mut().flush_line(pa);
        }
        let r = sim.run(GADGET_RUN_BUDGET);
        cycles += r.cycles;
        committed += r.committed;
    }
    (cycles, committed)
}

/// Architectural-only execution of `program` to its halt: no cycle
/// model exists, so the cell reports zero simulated cycles.
fn run_functional_cell(program: &std::sync::Arc<Program>, config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    sim.load_program(program.clone());
    let result = sim
        .run_functional(SampledOptions::default().max_insts)
        .expect("a fresh simulator runs functionally");
    assert_eq!(
        result.exit,
        condspec::FunctionalExit::Halted,
        "perf workloads halt"
    );
    (0, result.retired)
}

/// The full sampled pipeline end to end: functional count + capture
/// passes, a detailed window per checkpoint, weighted stitch. Reports
/// the stitched cycle estimate over the whole program's instructions,
/// so `committed_inst_per_sec` is the effective whole-program rate the
/// sampling buys.
fn run_sampled_cell(
    workload: &str,
    program: &std::sync::Arc<Program>,
    config: SimConfig,
    checkpoints: usize,
    window: u64,
    warmup: u64,
) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let opts = SampledOptions {
        checkpoints,
        window,
        warmup,
        ..SampledOptions::default()
    };
    let sampled = run_sampled(&mut sim, program, workload, &opts).expect("sampled run completes");
    (sampled.report.cycles, sampled.total_insts)
}

/// Times one cell: `repeats` runs of `runner`, fastest wall time kept,
/// identical simulated work asserted across repeats.
fn measure_cell(
    workload: &'static str,
    defense: DefenseConfig,
    mode: CellMode,
    repeats: u32,
    runner: &dyn Fn() -> (u64, u64),
) -> PerfCell {
    let mut best: Option<PerfCell> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let (sim_cycles, committed) = runner();
        let wall_seconds = start.elapsed().as_secs_f64();
        match &mut best {
            None => {
                best = Some(PerfCell {
                    workload,
                    defense,
                    mode,
                    sim_cycles,
                    committed,
                    wall_seconds,
                });
            }
            Some(cell) => {
                assert_eq!(
                    (cell.sim_cycles, cell.committed),
                    (sim_cycles, committed),
                    "{workload}/{}/{}: simulated work must be deterministic",
                    defense.key(),
                    mode.key(),
                );
                cell.wall_seconds = cell.wall_seconds.min(wall_seconds);
            }
        }
    }
    best.expect("at least one repeat")
}

/// Runs the full workload × defense matrix, returning cells in a fixed
/// order: the detailed matrix (workloads outer, [`DEFENSES`] inner),
/// then the functional rows, then the sampled rows.
pub fn run_matrix(opts: &PerfOptions) -> Vec<PerfCell> {
    let counting = std::sync::Arc::new(counting_loop(opts.counting_iterations()));
    let chase = std::sync::Arc::new(pointer_chase(opts.chase_iterations()));
    let gadget = SpectreGadget::build(GadgetKind::V1);
    let keeps = |workload: &str, defense: DefenseConfig| {
        opts.only
            .as_ref()
            .map(|f| f.keeps(workload, defense))
            .unwrap_or(true)
    };
    let mut cells = Vec::new();
    for (workload, runner) in [
        (
            "counting-loop",
            Box::new(|c: SimConfig| run_to_halt_cell(&counting, c))
                as Box<dyn Fn(SimConfig) -> (u64, u64)>,
        ),
        (
            "pointer-chase",
            Box::new(|c: SimConfig| run_to_halt_cell(&chase, c)),
        ),
        (
            "spectre-gadget",
            Box::new(|c: SimConfig| run_gadget_cell(&gadget, c, opts.gadget_rounds())),
        ),
    ] {
        for defense in DEFENSES {
            if !keeps(workload, defense) {
                continue;
            }
            let config = SimConfig::on_machine(defense, opts.machine);
            cells.push(measure_cell(
                workload,
                defense,
                CellMode::Detailed,
                opts.cell_repeats(),
                &|| runner(config),
            ));
        }
    }

    // Functional rows: the fast-forward engine on the two halting
    // workloads. Execution is architectural-only, so the defense column
    // is nominal — Origin, the no-defense environment.
    for (workload, program) in [("counting-loop", &counting), ("pointer-chase", &chase)] {
        if !keeps(workload, DefenseConfig::Origin) {
            continue;
        }
        let config = SimConfig::on_machine(DefenseConfig::Origin, opts.machine);
        cells.push(measure_cell(
            workload,
            DefenseConfig::Origin,
            CellMode::Functional,
            opts.cell_repeats(),
            &|| run_functional_cell(program, config),
        ));
    }

    // Sampled rows: the full sampled pipeline under the paper's
    // complete defense, where detailed simulation is slowest and
    // sampling buys the most.
    for (workload, program) in [("counting-loop", &counting), ("pointer-chase", &chase)] {
        if !keeps(workload, DefenseConfig::CacheHitTpbuf) {
            continue;
        }
        let config = SimConfig::on_machine(DefenseConfig::CacheHitTpbuf, opts.machine);
        cells.push(measure_cell(
            workload,
            DefenseConfig::CacheHitTpbuf,
            CellMode::Sampled,
            opts.cell_repeats(),
            &|| {
                run_sampled_cell(
                    workload,
                    program,
                    config,
                    opts.sampled_checkpoints(),
                    opts.sampled_window(),
                    opts.sampled_warmup(),
                )
            },
        ));
    }
    cells
}

/// The machine identity throughput numbers belong to, e.g.
/// `x86_64-1cpu`. Wall-clock rates from different hosts are not
/// comparable; [`crate::guard::compare`] only checks throughput when the
/// baseline's tag matches the current host's.
pub fn host_tag() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("{}-{cpus}cpu", std::env::consts::ARCH)
}

/// The identity wall-clock throughput numbers belong to: machine tag,
/// compiler, and core count. Recorded in every simspeed/stagespeed
/// report as the `host` block; [`crate::guard::compare`] refuses the throughput check
/// with a message naming the mismatching field when any of them differ
/// from the baseline's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Architecture + core-count tag (see [`host_tag`]).
    pub tag: String,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: String,
    /// Available parallelism when the report was produced.
    pub cpus: u64,
}

impl HostInfo {
    /// The identity of the running binary and machine.
    pub fn current() -> Self {
        HostInfo {
            tag: host_tag(),
            rustc: env!("CONDSPEC_RUSTC_VERSION").to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }

    /// Serializes as the report `host` block.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("tag", Json::Str(self.tag.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("cpus", Json::U64(self.cpus)),
        ])
    }

    /// Why throughput from `baseline_host` is incomparable with this
    /// host, naming the first mismatching field — or `None` when the
    /// identities match. `baseline_host` is the baseline's `host` block
    /// (reports before the block carry only a `host_tag` string; pass
    /// `tag_only` then, and only the tag is checked).
    pub fn incompatibility(&self, baseline_host: &Json) -> Option<String> {
        let fields: [(&str, &str); 2] = [("tag", &self.tag), ("rustc", &self.rustc)];
        for (key, current) in fields {
            if let Some(base) = baseline_host.get(key).and_then(Json::as_str) {
                if base != current {
                    return Some(format!(
                        "host {key} mismatch: baseline `{base}` vs current `{current}`"
                    ));
                }
            }
        }
        if let Some(base) = baseline_host.get("cpus").and_then(Json::as_u64) {
            if base != self.cpus {
                return Some(format!(
                    "host cpus mismatch: baseline {base} vs current {}",
                    self.cpus
                ));
            }
        }
        None
    }
}

/// Serializes a matrix run as the `condspec-simspeed-v1` document.
pub fn to_json(opts: &PerfOptions, cells: &[PerfCell]) -> Json {
    Json::object([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("machine", Json::Str(opts.machine.name.to_string())),
        (
            "mode",
            Json::Str(if opts.quick { "quick" } else { "full" }.to_string()),
        ),
        ("host_tag", Json::Str(host_tag())),
        ("host", HostInfo::current().to_json()),
        (
            "cells",
            Json::Array(
                cells
                    .iter()
                    .map(|c| {
                        let mut fields = vec![
                            ("workload", Json::Str(c.workload.to_string())),
                            ("defense", Json::Str(c.defense.key().to_string())),
                        ];
                        // Detailed cells carry no mode field, so
                        // baselines from before the field still parse
                        // and compare.
                        if c.mode != CellMode::Detailed {
                            fields.push(("mode", Json::Str(c.mode.key().to_string())));
                        }
                        fields.extend([
                            ("sim_cycles", Json::U64(c.sim_cycles)),
                            ("committed_inst", Json::U64(c.committed)),
                            ("wall_seconds", Json::F64(c.wall_seconds)),
                            ("sim_cycles_per_sec", Json::F64(c.cycles_per_sec())),
                            ("committed_inst_per_sec", Json::F64(c.committed_per_sec())),
                        ]);
                        Json::object(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Validates a rendered simspeed document: schema tag, and every cell
/// reporting nonzero simulated work and throughput. Returns a
/// human-readable error on any violation (the CI smoke check).
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("empty cells array".to_string());
    }
    for cell in cells {
        let label = cell
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        let mode = cell
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("detailed");
        if !["detailed", "functional", "sampled"].contains(&mode) {
            return Err(format!("cell {label}: unknown mode `{mode}`"));
        }
        let nonzero_u64 = |key: &str| {
            cell.get(key)
                .and_then(Json::as_u64)
                .filter(|&v| v > 0)
                .ok_or(format!("cell {label}: {key} missing or zero"))
        };
        // Functional cells have no cycle model: sim_cycles must be
        // present but is exactly zero.
        if mode == "functional" {
            match cell.get("sim_cycles").and_then(Json::as_u64) {
                Some(0) => {}
                other => {
                    return Err(format!(
                        "cell {label}: functional sim_cycles must be 0 ({other:?})"
                    ))
                }
            }
        } else {
            nonzero_u64("sim_cycles")?;
        }
        nonzero_u64("committed_inst")?;
        let rate_keys: &[&str] = if mode == "functional" {
            &["committed_inst_per_sec"]
        } else {
            &["sim_cycles_per_sec", "committed_inst_per_sec"]
        };
        for key in rate_keys {
            match cell.get(key).and_then(Json::as_f64) {
                Some(v) if v > 0.0 && v.is_finite() => {}
                other => return Err(format!("cell {label}: {key} not positive ({other:?})")),
            }
        }
    }
    Ok(())
}

/// The simspeed document, as the perf guard compares it. Cells are keyed
/// by workload, defense and mode (absent = `detailed`, so baselines from
/// before the field still compare); the machine and sizing must match.
pub const DOC: DocKind = DocKind {
    name: "perf",
    schema: SCHEMA,
    wrapper_schema: "condspec-simspeed-quick-baseline-v1",
    header: &["mode", "machine"],
    key: &[
        ("workload", None),
        ("defense", None),
        ("mode", Some("detailed")),
    ],
    work: &["sim_cycles", "committed_inst"],
    work_noun: "simulated work",
    rate: "committed_inst_per_sec",
    rate_unit: "Minst/s",
    validate,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Comparison, MIN_THROUGHPUT_RATIO};

    fn compare(
        current: &Json,
        baseline: &Json,
        host: &HostInfo,
        skip: bool,
    ) -> Result<Comparison, String> {
        crate::guard::compare(&DOC, current, baseline, host, skip)
    }

    #[test]
    fn quick_matrix_is_deterministic_and_valid() {
        let opts = PerfOptions {
            quick: true,
            ..PerfOptions::paper_default()
        };
        let a = run_matrix(&opts);
        let b = run_matrix(&opts);
        assert_eq!(a.len(), 13, "9 detailed + 2 functional + 2 sampled");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sim_cycles, y.sim_cycles, "{} {:?}", x.workload, x.defense);
            assert_eq!(x.committed, y.committed, "{} {:?}", x.workload, x.defense);
            match x.mode {
                // Functional cells simulate no cycles at all, by design.
                CellMode::Functional => assert_eq!(x.sim_cycles, 0),
                _ => assert!(x.sim_cycles > 0),
            }
            assert!(x.committed > 0);
        }
        assert_eq!(
            a.iter().filter(|c| c.mode == CellMode::Functional).count(),
            2
        );
        assert_eq!(a.iter().filter(|c| c.mode == CellMode::Sampled).count(), 2);
        let doc = to_json(&opts, &a);
        let parsed = Json::parse(&doc.render()).expect("round-trips");
        validate(&parsed).expect("valid document");
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Json::parse("{\"schema\":\"nope\",\"cells\":[]}").unwrap();
        assert!(validate(&doc).is_err());
    }

    fn tiny_report(committed: u64, per_sec: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","machine":"paper-default","mode":"quick",
                 "host_tag":"test-host",
                 "host":{{"tag":"test-host","rustc":"rustc 1.0.0","cpus":1}},
                 "cells":[{{"workload":"w","defense":"origin",
                            "sim_cycles":100,"committed_inst":{committed},
                            "wall_seconds":0.5,"sim_cycles_per_sec":200.0,
                            "committed_inst_per_sec":{per_sec}}}]}}"#
        ))
        .expect("test report parses")
    }

    fn host(tag: &str) -> HostInfo {
        HostInfo {
            tag: tag.to_string(),
            rustc: "rustc 1.0.0".to_string(),
            cpus: 1,
        }
    }

    #[test]
    fn compare_accepts_identical_reports() {
        let report = tiny_report(50, 100.0);
        let cmp = compare(&report, &report, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert_eq!(cmp.cells.len(), 1);
        assert!(cmp.throughput_note.contains("throughput checked"));
    }

    #[test]
    fn compare_fails_on_simulated_work_drift_even_cross_host() {
        let cmp = compare(
            &tiny_report(51, 100.0),
            &tiny_report(50, 100.0),
            &host("other-host"),
            false,
        )
        .expect("comparable");
        assert!(!cmp.passed());
        assert!(cmp.failures[0].contains("simulated work changed"));
        assert!(cmp.throughput_note.contains("refused"));
    }

    #[test]
    fn compare_gates_throughput_on_host_tag() {
        let slow = tiny_report(50, 100.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let base = tiny_report(50, 100.0);
        let matched = compare(&slow, &base, &host("test-host"), false).expect("comparable");
        assert!(!matched.passed());
        assert!(matched.failures[0].contains("regressed"));
        let other = compare(&slow, &base, &host("other-host"), false).expect("comparable");
        assert!(other.passed(), "cross-host throughput is not comparable");
        let skipped = compare(&slow, &base, &host("test-host"), true).expect("comparable");
        assert!(skipped.passed(), "env override skips the throughput gate");
        assert!(skipped.throughput_note.contains("CONDSPEC_SKIP_PERF_GUARD"));
    }

    #[test]
    fn compare_accepts_the_ci_wrapper_schema() {
        let report = tiny_report(50, 100.0);
        let wrapper = Json::parse(&format!(
            r#"{{"schema":"condspec-simspeed-quick-baseline-v1",
                 "host_tag":"test-host","report":{}}}"#,
            report.render()
        ))
        .expect("wrapper parses");
        let cmp = compare(&report, &wrapper, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed());
        assert!(cmp.throughput_note.contains("throughput checked"));
    }

    #[test]
    fn compare_rejects_structural_mismatch() {
        let mut other_mode = tiny_report(50, 100.0);
        if let Json::Object(fields) = &mut other_mode {
            for (k, v) in fields.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("full".to_string());
                }
            }
        }
        assert!(compare(&tiny_report(50, 100.0), &other_mode, &host("h"), false).is_err());
        assert!(compare(
            &tiny_report(50, 100.0),
            &Json::parse("{\"schema\":\"nope\"}").unwrap(),
            &host("h"),
            false
        )
        .is_err());
    }

    #[test]
    fn compare_names_the_mismatching_host_field() {
        let base = tiny_report(50, 100.0);
        let slow = tiny_report(50, 100.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let mut other = host("test-host");
        other.rustc = "rustc 2.0.0".to_string();
        let cmp = compare(&slow, &base, &other, false).expect("comparable");
        assert!(
            cmp.passed(),
            "mismatched toolchain must not fail throughput"
        );
        assert!(
            cmp.throughput_note.contains("rustc mismatch"),
            "note names the field: {}",
            cmp.throughput_note
        );
        let mut more_cpus = host("test-host");
        more_cpus.cpus = 8;
        let cmp = compare(&slow, &base, &more_cpus, false).expect("comparable");
        assert!(cmp.throughput_note.contains("cpus mismatch"));
    }

    #[test]
    fn compare_tolerates_an_only_subset_of_the_baseline() {
        let full = Json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","machine":"paper-default","mode":"quick",
                 "host_tag":"test-host",
                 "cells":[{{"workload":"w","defense":"origin",
                            "sim_cycles":100,"committed_inst":50,
                            "wall_seconds":0.5,"sim_cycles_per_sec":200.0,
                            "committed_inst_per_sec":100.0}},
                          {{"workload":"w","defense":"cache-hit",
                            "sim_cycles":120,"committed_inst":50,
                            "wall_seconds":0.5,"sim_cycles_per_sec":240.0,
                            "committed_inst_per_sec":100.0}}]}}"#
        ))
        .expect("full report parses");
        let subset = tiny_report(50, 100.0);
        let cmp = compare(&subset, &full, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert_eq!(cmp.cells.len(), 1, "only the overlapping cell compares");
        // The reverse direction is a hard error: the baseline does not
        // cover the current matrix.
        assert!(compare(&full, &subset, &host("test-host"), false)
            .unwrap_err()
            .contains("not in the baseline"));
    }

    #[test]
    fn cell_filter_parses_and_rejects() {
        let f = CellFilter::parse("pointer-chase").expect("bare workload");
        assert_eq!(f.workload, "pointer-chase");
        assert_eq!(f.defense, None);
        let f = CellFilter::parse("pointer-chase:origin").expect("with defense");
        assert_eq!(f.defense, Some(DefenseConfig::Origin));
        assert!(f.keeps("pointer-chase", DefenseConfig::Origin));
        assert!(!f.keeps("pointer-chase", DefenseConfig::CacheHit));
        assert!(!f.keeps("counting-loop", DefenseConfig::Origin));
        assert!(CellFilter::parse("nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(CellFilter::parse("pointer-chase:nope")
            .unwrap_err()
            .contains("unknown defense"));
    }

    #[test]
    fn only_filter_restricts_the_matrix() {
        let opts = PerfOptions {
            quick: true,
            only: Some(CellFilter::parse("counting-loop:origin").unwrap()),
            ..PerfOptions::paper_default()
        };
        let cells = run_matrix(&opts);
        // counting-loop:origin matches one detailed cell and the
        // functional cell (functional rows run under Origin).
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.workload, "counting-loop");
            assert_eq!(cell.defense, DefenseConfig::Origin);
        }
        assert_eq!(cells[0].mode, CellMode::Detailed);
        assert_eq!(cells[1].mode, CellMode::Functional);
    }
}
