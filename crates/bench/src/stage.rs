//! Per-stage microbenchmarks (`condspec perf --stages`).
//!
//! `condspec perf` measures the simulator end to end; when a cell
//! regresses it says nothing about *which* structure slowed down. This
//! module isolates the data structures each pipeline stage leans on and
//! times them directly, one cell per stage:
//!
//! * **dispatch** — issue-queue allocate/free churn plus the
//!   `views_excluding` dense-view rebuild the security policies consume
//!   at dispatch.
//! * **wakeup-select** — operand wakeups (`set_ops_ready`), the masked
//!   `unissued & ops_ready` candidate scan (`collect_ready`), the
//!   oldest-first sort, and the bounce/replay path through the blocked
//!   bitmap.
//! * **lsq-search** — store-forwarding overlay, unknown-address /
//!   unknown-data dependence checks and the memory-order-violation
//!   scan over seq-bounded bitmap ranges, with ring wrap and squashes.
//! * **commit** — ROB push/complete/pop ring churn with the
//!   `head_completed` bitmap test and the `all_older_completed`
//!   fence-style range check.
//!
//! Every cell runs a fixed, seeded operation stream, so its `ops` and
//! `checksum` fields are deterministic on every host — the checksum
//! both defeats dead-code elimination and pins the structures'
//! *results*, not just their speed. Cells are timed several times and
//! the fastest wall time is reported, exactly like the simspeed matrix.
//! The result serializes as the `condspec-stagespeed-v1` JSON schema;
//! [`DOC`] describes it to the same perf guard ([`crate::guard`]) that
//! checks simspeed reports.

use crate::guard::DocKind;
use crate::perf::{host_tag, HostInfo};
use condspec_isa::Inst;
use condspec_pipeline::iq::{IqHot, IssueQueue};
use condspec_pipeline::lsq::Lsq;
use condspec_pipeline::policy::InstClass;
use condspec_pipeline::regfile::PhysReg;
use condspec_pipeline::rob::Rob;
use condspec_stats::{Json, SplitMix64};
use std::time::Instant;

/// Schema identifier embedded in the JSON output.
pub const SCHEMA: &str = "condspec-stagespeed-v1";

/// The stage names of the suite, in run order.
pub const STAGES: [&str; 4] = ["dispatch", "wakeup-select", "lsq-search", "commit"];

/// Capacities mirror the paper-default machine: 64-entry IQ, 192-entry
/// ROB, 32+32-entry LSQ.
const IQ_CAPACITY: usize = 64;
const ROB_CAPACITY: usize = 192;
const LSQ_CAPACITY: usize = 32;

/// Sizing for one stage-suite invocation.
#[derive(Debug, Clone, Copy)]
pub struct StageOptions {
    /// Quick mode: ~50× fewer rounds per cell (CI smoke).
    pub quick: bool,
}

impl StageOptions {
    fn rounds(&self, full: u64) -> u64 {
        if self.quick {
            (full / 50).max(1)
        } else {
            full
        }
    }

    /// Timed repetitions per cell; the fastest wall time is reported
    /// and every repeat must reproduce the cell's checksum exactly.
    fn cell_repeats(&self) -> u32 {
        3
    }
}

/// One stage measurement.
#[derive(Debug, Clone)]
pub struct StageCell {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Structure operations performed (deterministic).
    pub ops: u64,
    /// Result checksum over the operation stream (deterministic).
    pub checksum: u64,
    /// Wall-clock seconds the cell took (host-dependent).
    pub wall_seconds: f64,
}

impl StageCell {
    /// Structure operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_seconds.max(1e-9)
    }
}

#[inline]
fn mix(sum: u64, x: u64) -> u64 {
    (sum.rotate_left(7) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// IQ allocate/free churn + the dispatch-path dense-view rebuild.
fn dispatch_cell(rounds: u64) -> (u64, u64) {
    let mut iq = IssueQueue::new(IQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d001);
    let mut resident: Vec<usize> = Vec::with_capacity(IQ_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        while !iq.is_full() {
            let class = match seq % 3 {
                0 => InstClass::Memory,
                1 => InstClass::Branch,
                _ => InstClass::Other,
            };
            let srcs = [
                Some((seq % 96) as PhysReg),
                (seq % 2 == 0).then_some(((seq + 7) % 96) as PhysReg),
            ];
            let slot = iq
                .allocate(IqHot::new(
                    seq,
                    class,
                    srcs,
                    class == InstClass::Memory,
                    false,
                ))
                .expect("IQ has space");
            // The policies consume the pre-allocation view set on every
            // dispatch; rebuilding it is part of the stage's cost.
            let views = iq.views_excluding(slot);
            sum = mix(sum, views.len() as u64 ^ (slot as u64) << 8);
            iq.set_ops_ready(slot);
            resident.push(slot);
            seq += 1;
            ops += 1;
        }
        while !resident.is_empty() {
            let pick = (rng.next_u64() % resident.len() as u64) as usize;
            let slot = resident.swap_remove(pick);
            iq.mark_issued(slot);
            iq.free_slot(slot);
            sum = mix(sum, slot as u64);
            ops += 1;
        }
    }
    (ops, sum)
}

/// Wakeups, the masked candidate scan, select order, and bounce/replay.
fn wakeup_select_cell(rounds: u64) -> (u64, u64) {
    let mut iq = IssueQueue::new(IQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d002);
    let mut scratch: Vec<(u64, usize)> = Vec::with_capacity(IQ_CAPACITY);
    let mut pending: Vec<usize> = Vec::with_capacity(IQ_CAPACITY);
    let mut bounced_once = [false; IQ_CAPACITY];
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        while !iq.is_full() {
            let slot = iq
                .allocate(IqHot::new(
                    seq,
                    InstClass::Memory,
                    [Some((seq % 96) as PhysReg), None],
                    true,
                    false,
                ))
                .expect("IQ has space");
            pending.push(slot);
            bounced_once[slot] = false;
            seq += 1;
        }
        // Wakeup: results arrive in pseudo-random order.
        while !pending.is_empty() {
            let pick = (rng.next_u64() % pending.len() as u64) as usize;
            let slot = pending.swap_remove(pick);
            iq.set_ops_ready(slot);
            ops += 1;
        }
        // Select: masked scan + oldest-first sort, 8-wide; every fourth
        // winner bounces once (hazard filter) and replays on a later
        // scan through the blocked bitmap.
        loop {
            scratch.clear();
            iq.collect_ready(&mut scratch);
            if scratch.is_empty() {
                break;
            }
            scratch.sort_unstable();
            let mut blocked_seen = 0u64;
            iq.for_each_blocked(|_| blocked_seen += 1);
            sum = mix(sum, scratch.len() as u64 ^ blocked_seen << 32);
            for (inst_seq, slot) in scratch.iter().copied().take(8) {
                iq.mark_issued(slot);
                if inst_seq % 4 == 3 && !bounced_once[slot] {
                    bounced_once[slot] = true;
                    iq.bounce(slot);
                } else {
                    iq.free_slot(slot);
                }
                sum = mix(sum, inst_seq ^ (slot as u64) << 16);
                ops += 1;
            }
        }
    }
    (ops, sum)
}

/// Store-forwarding, dependence checks and the violation scan over a
/// wrapping, squashed LSQ.
fn lsq_search_cell(rounds: u64) -> (u64, u64) {
    let mut lsq = Lsq::new(LSQ_CAPACITY, LSQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d003);
    let mut squash_scratch: Vec<u64> = Vec::with_capacity(2 * LSQ_CAPACITY);
    let mut loads: Vec<u64> = Vec::with_capacity(LSQ_CAPACITY);
    let mut stores: Vec<(u64, u64, u64)> = Vec::with_capacity(LSQ_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        loads.clear();
        stores.clear();
        // Dispatch an interleaved window over a 64-line address pool so
        // forwarding and violation hits actually occur.
        while lsq.load_has_space() && lsq.store_has_space() {
            let addr = 0x1000 + 8 * (rng.next_u64() % 64);
            let size = 1u64 << (rng.next_u64() % 4);
            if rng.next_u64().is_multiple_of(3) {
                lsq.allocate_store(seq, size).expect("STQ has space");
                stores.push((seq, addr, size));
            } else {
                lsq.allocate_load(seq, size).expect("LDQ has space");
                loads.push(seq);
                // Half the loads execute eagerly — before older stores
                // resolve — so violation_on_store scans find real hits.
                if rng.next_u64().is_multiple_of(2) {
                    sum = mix(sum, lsq.older_store_unknown(seq) as u64);
                    lsq.resolve_load(seq, addr, true);
                    ops += 1;
                }
            }
            seq += 1;
        }
        // Resolve store addresses then data, checking for violations
        // and re-running the dependence queries a waiting load would.
        for (store_seq, addr, size) in stores.iter().copied() {
            lsq.resolve_store_addr(store_seq, addr);
            if let Some(victim) = lsq.violation_on_store(store_seq, addr, size) {
                sum = mix(sum, victim);
            }
            ops += 1;
        }
        for (store_seq, addr, _) in stores.iter().copied() {
            lsq.resolve_store_data(store_seq, addr ^ 0xabcd);
            ops += 1;
        }
        for load_seq in loads.iter().copied() {
            let addr = 0x1000 + 8 * (load_seq % 64);
            sum = mix(sum, lsq.older_store_data_unknown(load_seq, addr, 8) as u64);
            sum = mix(sum, lsq.overlay(load_seq, addr, 8, 0x5555_5555_5555_5555));
            ops += 2;
        }
        // Alternate squash and in-order release so the rings wrap and
        // the word-wise clears run on both split shapes.
        if round % 4 == 3 {
            let cut = seq - (seq - loads[0].min(stores.first().map_or(seq, |s| s.0))) / 2;
            lsq.squash_after_into(cut, &mut squash_scratch);
            sum = mix(sum, squash_scratch.len() as u64);
            for &removed in &squash_scratch {
                sum = mix(sum, removed);
            }
            loads.retain(|&l| l <= cut);
            stores.retain(|&(s, _, _)| s <= cut);
            ops += 1;
        }
        for load_seq in loads.iter().copied() {
            lsq.release_load(load_seq);
            ops += 1;
        }
        for (store_seq, _, _) in stores.iter().copied() {
            lsq.release_store(store_seq);
            ops += 1;
        }
        assert_eq!(lsq.load_count(), 0, "all loads released");
        assert_eq!(lsq.store_count(), 0, "all stores released");
    }
    (ops, sum)
}

/// ROB ring churn: push, out-of-order completion, in-order pop.
fn commit_cell(rounds: u64) -> (u64, u64) {
    let mut rob = Rob::new(ROB_CAPACITY);
    let mut pool = Vec::new();
    let mut rng = SplitMix64::new(0x57a6_e5ee_d004);
    let mut window: Vec<u64> = Vec::with_capacity(ROB_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        window.clear();
        while !rob.is_full() {
            rob.push(seq, 0x400_0000 + 4 * seq, Inst::Nop, 0x400_0004 + 4 * seq);
            window.push(seq);
            seq += 1;
            ops += 1;
        }
        // Complete the window in pseudo-random order; the fence-style
        // range check runs against the moving completion frontier.
        while !window.is_empty() {
            let pick = (rng.next_u64() % window.len() as u64) as usize;
            let done = window.swap_remove(pick);
            rob.mark_issued(done);
            rob.mark_completed(done);
            sum = mix(sum, rob.all_older_completed(done) as u64 ^ done << 1);
            ops += 1;
            // Drain whatever became committable.
            while rob.head_completed() {
                let hot = rob.pop_head_recycle(&mut pool).expect("head exists");
                sum = mix(sum, hot.seq);
                ops += 1;
            }
        }
        assert!(rob.is_empty(), "window fully committed");
    }
    (ops, sum)
}

/// A boxed stage-cell runner returning `(ops, checksum)`.
type CellRunner = Box<dyn Fn() -> (u64, u64)>;

/// Runs the per-stage suite, returning cells in [`STAGES`] order.
pub fn run_suite(opts: &StageOptions) -> Vec<StageCell> {
    let cells: [(&'static str, CellRunner); 4] = [
        (
            "dispatch",
            Box::new({
                let rounds = opts.rounds(4_000);
                move || dispatch_cell(rounds)
            }),
        ),
        (
            "wakeup-select",
            Box::new({
                let rounds = opts.rounds(6_000);
                move || wakeup_select_cell(rounds)
            }),
        ),
        (
            "lsq-search",
            Box::new({
                let rounds = opts.rounds(6_000);
                move || lsq_search_cell(rounds)
            }),
        ),
        (
            "commit",
            Box::new({
                let rounds = opts.rounds(3_000);
                move || commit_cell(rounds)
            }),
        ),
    ];
    cells
        .iter()
        .map(|(stage, run)| {
            let mut best: Option<StageCell> = None;
            for _ in 0..opts.cell_repeats() {
                let start = Instant::now();
                let (ops, checksum) = run();
                let wall_seconds = start.elapsed().as_secs_f64();
                match &mut best {
                    None => {
                        best = Some(StageCell {
                            stage,
                            ops,
                            checksum,
                            wall_seconds,
                        });
                    }
                    Some(cell) => {
                        assert_eq!(
                            (cell.ops, cell.checksum),
                            (ops, checksum),
                            "{stage}: stage work must be deterministic",
                        );
                        cell.wall_seconds = cell.wall_seconds.min(wall_seconds);
                    }
                }
            }
            best.expect("at least one repeat")
        })
        .collect()
}

/// Serializes a suite run as the `condspec-stagespeed-v1` document.
pub fn to_json(opts: &StageOptions, cells: &[StageCell]) -> Json {
    Json::object([
        ("schema", Json::Str(SCHEMA.to_string())),
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
                        Json::object([
                            ("stage", Json::Str(c.stage.to_string())),
                            ("ops", Json::U64(c.ops)),
                            ("checksum", Json::U64(c.checksum)),
                            ("wall_seconds", Json::F64(c.wall_seconds)),
                            ("ops_per_sec", Json::F64(c.ops_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Validates a rendered stagespeed document: schema tag, the full
/// [`STAGES`] set, and nonzero work and throughput in every cell.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells array")?;
    let names: Vec<_> = cells
        .iter()
        .map(|c| c.get("stage").and_then(Json::as_str).unwrap_or("<unnamed>"))
        .collect();
    if names != STAGES {
        return Err(format!("expected stages {STAGES:?}, found {names:?}"));
    }
    for (cell, name) in cells.iter().zip(&names) {
        match cell.get("ops").and_then(Json::as_u64) {
            Some(v) if v > 0 => {}
            other => return Err(format!("cell {name}: ops missing or zero ({other:?})")),
        }
        cell.get("checksum")
            .and_then(Json::as_u64)
            .ok_or(format!("cell {name}: checksum missing"))?;
        match cell.get("ops_per_sec").and_then(Json::as_f64) {
            Some(v) if v > 0.0 && v.is_finite() => {}
            other => return Err(format!("cell {name}: ops_per_sec not positive ({other:?})")),
        }
    }
    Ok(())
}

/// The stagespeed document, as the perf guard compares it: cells keyed
/// by stage, `ops` and `checksum` exact, `ops_per_sec` gated.
pub const DOC: DocKind = DocKind {
    name: "stage",
    schema: SCHEMA,
    wrapper_schema: "condspec-stagespeed-quick-baseline-v1",
    header: &["mode"],
    key: &[("stage", None)],
    work: &["ops", "checksum"],
    work_noun: "deterministic work",
    rate: "ops_per_sec",
    rate_unit: "Mops/s",
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
    fn quick_suite_is_deterministic_and_valid() {
        let opts = StageOptions { quick: true };
        let a = run_suite(&opts);
        let b = run_suite(&opts);
        let names: Vec<_> = a.iter().map(|c| c.stage).collect();
        assert_eq!(names, STAGES);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops, y.ops, "{}", x.stage);
            assert_eq!(x.checksum, y.checksum, "{}", x.stage);
            assert!(x.ops > 0);
        }
        let doc = to_json(&opts, &a);
        let parsed = Json::parse(&doc.render()).expect("round-trips");
        validate(&parsed).expect("valid document");
    }

    fn tiny_report(ops: u64, per_sec: f64) -> Json {
        let cells: Vec<String> = STAGES
            .iter()
            .map(|stage| {
                format!(
                    r#"{{"stage":"{stage}","ops":{ops},"checksum":7,
                        "wall_seconds":0.5,"ops_per_sec":{per_sec}}}"#
                )
            })
            .collect();
        Json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","mode":"quick","host_tag":"test-host",
                 "host":{{"tag":"test-host","rustc":"rustc 1.0.0","cpus":1}},
                 "cells":[{}]}}"#,
            cells.join(",")
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
    fn compare_checks_work_everywhere_and_gates_throughput() {
        let base = tiny_report(100, 1000.0);
        let same = compare(&base, &base, &host("test-host"), false).expect("comparable");
        assert!(same.passed(), "{:?}", same.failures);
        assert!(same.throughput_note.contains("throughput checked"));

        let drifted = compare(&tiny_report(101, 1000.0), &base, &host("other-host"), false)
            .expect("comparable");
        assert!(!drifted.passed());
        assert!(drifted.failures[0].contains("deterministic work changed"));

        let slow = tiny_report(100, 1000.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let gated = compare(&slow, &base, &host("test-host"), false).expect("comparable");
        assert!(!gated.passed());
        assert!(gated.failures[0].contains("regressed"));
        let cross = compare(&slow, &base, &host("other-host"), false).expect("comparable");
        assert!(cross.passed(), "cross-host throughput is not comparable");
        assert!(cross.throughput_note.contains("tag mismatch"));
        let skipped = compare(&slow, &base, &host("test-host"), true).expect("comparable");
        assert!(skipped.passed());
    }

    #[test]
    fn compare_accepts_the_ci_wrapper_schema() {
        let report = tiny_report(100, 1000.0);
        let wrapper = Json::parse(&format!(
            r#"{{"schema":"condspec-stagespeed-quick-baseline-v1",
                 "host_tag":"test-host","report":{}}}"#,
            report.render()
        ))
        .expect("wrapper parses");
        let cmp = compare(&report, &wrapper, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }

    #[test]
    fn compare_rejects_unknown_stage_and_mode_mismatch() {
        let base = tiny_report(100, 1000.0);
        let renamed = base.render().replace("\"dispatch\"", "\"warp-drive\"");
        let renamed = Json::parse(&renamed).expect("parses");
        assert!(compare(&renamed, &base, &host("h"), false)
            .unwrap_err()
            .contains("not in the baseline"));
        let full_mode =
            Json::parse(&base.render().replace("\"quick\"", "\"full\"")).expect("parses");
        assert!(compare(&base, &full_mode, &host("h"), false)
            .unwrap_err()
            .contains("mode mismatch"));
    }
}
