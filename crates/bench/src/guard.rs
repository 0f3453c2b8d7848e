//! The perf guard: one baseline comparison for every benchmark document
//! (`condspec perf --compare` for simspeed reports, `--stage-baseline`
//! for stagespeed reports, and CI's regression gate over both).
//!
//! A [`DocKind`] names what differs between document kinds — schemas,
//! cell key fields, exact-work fields, the throughput field and the
//! header fields that must agree — and [`compare`] applies the same two
//! checks to any of them:
//!
//! * **Work** — exact equality per cell, on every host: the measured
//!   code is deterministic, so any drift means the model changed and the
//!   baseline must be regenerated deliberately (see
//!   `ci/make_perf_baseline.py`).
//! * **Throughput** — `current/baseline ≥` [`MIN_THROUGHPUT_RATIO`] per
//!   cell, but only when the current [`HostInfo`] matches the baseline's
//!   recorded host identity (rates from different machines or compilers
//!   are incomparable — the refusal names the mismatching field) and the
//!   check is not skipped (`CONDSPEC_SKIP_PERF_GUARD=1` for loaded or
//!   throttled hosts).

use crate::perf::HostInfo;
use condspec_stats::Json;

/// Largest tolerated throughput drop: a cell below this fraction of the
/// baseline's rate fails [`compare`] (when the host matches). 0.70 keeps
/// the guard robust to scheduler jitter while still catching real
/// hot-path regressions.
pub const MIN_THROUGHPUT_RATIO: f64 = 0.70;

/// The shape of one benchmark document kind, as the guard sees it.
#[derive(Debug)]
pub struct DocKind {
    /// Short name for log lines (`perf guard ok: ...`).
    pub name: &'static str,
    /// Schema tag of a bare report.
    pub schema: &'static str,
    /// Schema tag of the CI wrapper `{schema, host_tag, report}`.
    pub wrapper_schema: &'static str,
    /// Header fields that must be equal in both reports.
    pub header: &'static [&'static str],
    /// Fields identifying a cell, each with the value a cell that omits
    /// the field is read as.
    pub key: &'static [(&'static str, Option<&'static str>)],
    /// Deterministic work fields that must match exactly.
    pub work: &'static [&'static str],
    /// What a work drift means, for the failure line.
    pub work_noun: &'static str,
    /// The throughput field gated on host identity.
    pub rate: &'static str,
    /// Display unit of the rate divided by 1e6 (`Minst/s`).
    pub rate_unit: &'static str,
    /// Schema and sanity check of a fresh report.
    pub validate: fn(&Json) -> Result<(), String>,
}

/// One cell of a [`compare`] run: baseline vs current.
#[derive(Debug, Clone)]
pub struct CompareCell {
    /// Key field values, in [`DocKind::key`] order.
    pub key: Vec<String>,
    /// The key values that differ from their defaults, joined by `/`.
    pub label: String,
    /// `(field, baseline, current)` per [`DocKind::work`] field.
    pub work: Vec<(&'static str, u64, u64)>,
    /// `(baseline, current)` [`DocKind::rate`].
    pub rate: (f64, f64),
}

impl CompareCell {
    /// current / baseline rate.
    pub fn throughput_ratio(&self) -> f64 {
        self.rate.1 / self.rate.0.max(1e-9)
    }

    /// Whether the deterministic work fields match exactly.
    pub fn work_matches(&self) -> bool {
        self.work.iter().all(|(_, base, got)| base == got)
    }

    /// The work fields as `field base -> current`, comma separated.
    pub fn work_delta(&self) -> String {
        let parts: Vec<String> = self
            .work
            .iter()
            .map(|(field, base, got)| format!("{field} {base} -> {got}"))
            .collect();
        parts.join(", ")
    }
}

/// The verdict of comparing a fresh report against a committed baseline.
#[derive(Debug)]
pub struct Comparison {
    /// Per-cell deltas, in the current report's cell order.
    pub cells: Vec<CompareCell>,
    /// Human-readable regressions; empty means the comparison passed.
    pub failures: Vec<String>,
    /// Why throughput was or was not checked (one line for the log).
    pub throughput_note: String,
}

impl Comparison {
    /// Whether the report is acceptable (no exact-work mismatch, no
    /// over-threshold throughput regression).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Unwraps a baseline document to its report and legacy host tag: a
/// bare report, or the CI wrapper whose `host_tag` takes precedence over
/// one inside the report.
fn unwrap_baseline<'a>(
    kind: &DocKind,
    baseline: &'a Json,
) -> Result<(&'a Json, Option<&'a str>), String> {
    match baseline.get("schema").and_then(Json::as_str) {
        Some(s) if s == kind.wrapper_schema => {
            let report = baseline
                .get("report")
                .ok_or("baseline wrapper has no report field")?;
            let tag = baseline
                .get("host_tag")
                .and_then(Json::as_str)
                .or_else(|| report.get("host_tag").and_then(Json::as_str));
            Ok((report, tag))
        }
        Some(s) if s == kind.schema => {
            Ok((baseline, baseline.get("host_tag").and_then(Json::as_str)))
        }
        other => Err(format!(
            "unrecognized {} baseline schema: {other:?}",
            kind.name
        )),
    }
}

/// The baseline's recorded host identity: its `host` block when present
/// (wrapper level preferred), else a tag-only block synthesized from the
/// legacy `host_tag` string.
fn baseline_host(baseline: &Json, report: &Json, tag: Option<&str>) -> Option<Json> {
    if let Some(block) = baseline.get("host").or_else(|| report.get("host")) {
        return Some(block.clone());
    }
    tag.map(|t| Json::object([("tag", Json::Str(t.to_string()))]))
}

/// Resolves the throughput-check gate: `Ok(note)` when wall-clock rates
/// may be compared, `Err(note)` when they must not be (the note names
/// the reason — the skip is explicit, never silent).
fn throughput_gate(
    host: &HostInfo,
    base_host: Option<&Json>,
    skip: bool,
) -> Result<String, String> {
    if skip {
        return Err("throughput check skipped: CONDSPEC_SKIP_PERF_GUARD set".to_string());
    }
    match base_host {
        None => Err("throughput check skipped: baseline records no host identity".to_string()),
        Some(block) => match host.incompatibility(block) {
            Some(reason) => Err(format!(
                "throughput check refused: {reason} (simulated-work equality still verified)"
            )),
            None => Ok(format!(
                "throughput checked: host {} matches baseline, floor {MIN_THROUGHPUT_RATIO:.2}x",
                host.tag
            )),
        },
    }
}

/// A report's cells as `(key values, cell)`.
fn cells<'a>(kind: &DocKind, report: &'a Json) -> Result<Vec<(Vec<String>, &'a Json)>, String> {
    report
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("report has no cells array")?
        .iter()
        .map(|cell| {
            let key = kind
                .key
                .iter()
                .map(|&(field, default)| {
                    cell.get(field)
                        .and_then(Json::as_str)
                        .or(default)
                        .map(str::to_string)
                        .ok_or(format!("cell missing {field}"))
                })
                .collect::<Result<_, String>>()?;
            Ok((key, cell))
        })
        .collect()
}

fn field_u64(cell: &Json, key: &str) -> Result<u64, String> {
    cell.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("cell missing {key}"))
}

fn field_f64(cell: &Json, key: &str) -> Result<f64, String> {
    cell.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("cell missing {key}"))
}

/// Compares a fresh `kind` report against a committed baseline (a bare
/// report or its CI wrapper).
///
/// A current report may carry a subset of the baseline's cells (e.g.
/// `perf --only`); the subset is compared cell for cell. Cells present in
/// the current report but absent from the baseline are a hard error (the
/// matrix changed; regenerate the baseline).
///
/// # Errors
///
/// Returns a message (instead of a [`Comparison`]) when the documents
/// are structurally incomparable: unknown schema, header mismatch, or
/// current cells the baseline does not cover.
pub fn compare(
    kind: &DocKind,
    current: &Json,
    baseline: &Json,
    host: &HostInfo,
    skip_throughput: bool,
) -> Result<Comparison, String> {
    match current.get("schema").and_then(Json::as_str) {
        Some(s) if s == kind.schema => {}
        other => return Err(format!("current report has bad schema: {other:?}")),
    }
    let (base_report, base_tag) = unwrap_baseline(kind, baseline)?;
    for key in kind.header {
        let base = base_report.get(key).and_then(Json::as_str);
        let got = current.get(key).and_then(Json::as_str);
        if base != got {
            return Err(format!(
                "{key} mismatch: baseline {base:?} vs current {got:?}"
            ));
        }
    }
    let base_cells = cells(kind, base_report)?;
    let got_cells = cells(kind, current)?;
    if got_cells.is_empty() {
        return Err("current report has no cells".to_string());
    }

    let base_host = baseline_host(baseline, base_report, base_tag);
    let gate = throughput_gate(host, base_host.as_ref(), skip_throughput);
    let check_throughput = gate.is_ok();
    let throughput_note = match gate {
        Ok(note) | Err(note) => note,
    };

    let mut compared = Vec::new();
    let mut failures = Vec::new();
    for (key, got) in got_cells {
        let Some((_, base)) = base_cells.iter().find(|(k, _)| *k == key) else {
            return Err(format!(
                "cell {} is not in the baseline (matrix changed — regenerate the baseline)",
                key.join("/")
            ));
        };
        let label: Vec<&str> = key
            .iter()
            .zip(kind.key)
            .filter(|(value, (_, default))| Some(value.as_str()) != *default)
            .map(|(value, _)| value.as_str())
            .collect();
        let cell = CompareCell {
            label: label.join("/"),
            work: kind
                .work
                .iter()
                .map(|&field| Ok((field, field_u64(base, field)?, field_u64(got, field)?)))
                .collect::<Result<_, String>>()?,
            rate: (field_f64(base, kind.rate)?, field_f64(got, kind.rate)?),
            key,
        };
        if !cell.work_matches() {
            failures.push(format!(
                "{}: {} changed — {}; the run no longer reproduces the committed baseline \
                 (regenerate the baseline if the change is intentional)",
                cell.label,
                kind.work_noun,
                cell.work_delta(),
            ));
        }
        let ratio = cell.throughput_ratio();
        if check_throughput && ratio < MIN_THROUGHPUT_RATIO {
            failures.push(format!(
                "{}: {} regressed {:.0} -> {:.0} ({ratio:.2}x, floor {MIN_THROUGHPUT_RATIO:.2}x)",
                cell.label, kind.rate, cell.rate.0, cell.rate.1,
            ));
        }
        compared.push(cell);
    }
    Ok(Comparison {
        cells: compared,
        failures,
        throughput_note,
    })
}
