//! End-to-end tests of the `condspec` binary: exit codes, error output
//! and the save → run round trip, plus the perf guard over the committed
//! quick baselines.

use condspec_bench::guard::{compare, DocKind};
use condspec_bench::{perf, stage};
use condspec_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 16] = [
    "attack",
    "variant",
    "leaks",
    "bench",
    "run",
    "save",
    "trace",
    "timeseries",
    "sweep",
    "worker",
    "report",
    "store",
    "serve",
    "perf",
    "list",
    "help",
];

fn condspec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_condspec"))
        .args(args)
        .output()
        .expect("the condspec binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn help_exits_zero_and_names_every_subcommand() {
    let out = condspec(&["help"]);
    assert!(out.status.success());
    let usage = stdout(&out);
    for sub in SUBCOMMANDS {
        assert!(
            usage.contains(&format!("condspec {sub}")),
            "usage does not name `{sub}`"
        );
    }
}

#[test]
fn a_bad_flag_value_fails_with_an_error_and_usage() {
    for args in [
        &["bench", "--name", "lbm", "--iters", "many"][..],
        &["attack", "--defense", "nope"],
        &["sweep", "fig5", "--jobs"],
    ] {
        let out = condspec(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains("USAGE:"), "{args:?} prints usage: {err}");
    }
}

#[test]
fn saved_program_runs_functionally_and_sampled() {
    let dir = scratch("save-run");
    let file = dir.join("gcc.bin");
    let file = file.to_str().expect("utf-8 path");
    let store = dir.join("store");

    let out = condspec(&["save", "--name", "gcc", "--iters", "1", "--file", file]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).starts_with(&format!("wrote {file}:")));

    let out = condspec(&["run", "--file", file, "--mode", "functional"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("nonzero architectural registers:"));

    let out = condspec(&[
        "run",
        "--file",
        file,
        "--mode",
        "sampled",
        "--checkpoints",
        "2",
        "--store-root",
        store.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("filed 2 checkpoints"));
    assert!(stdout(&out).contains("stitched estimate:"));
}

#[test]
fn same_page_variant_matches_the_paper() {
    let out = condspec(&["variant", "--kind", "v1-same-page"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("[UNEXPECTED]"));
}

/// Each committed quick baseline, compared against itself, passes the
/// guard cell for cell.
#[test]
fn committed_quick_baselines_pass_against_themselves() {
    let ci = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
    for (kind, file, cells) in [
        (&perf::DOC, "perf-quick-baseline.json", 13),
        (&stage::DOC, "stage-quick-baseline.json", 4),
    ] {
        let kind: &DocKind = kind;
        let text = std::fs::read_to_string(ci.join(file)).expect("baseline readable");
        let wrapper = Json::parse(&text).expect("baseline parses");
        let report = wrapper.get("report").expect("wrapper carries a report");
        let cmp = compare(kind, report, &wrapper, &perf::HostInfo::current(), false)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(cmp.passed(), "{file}: {:?}", cmp.failures);
        assert_eq!(cmp.cells.len(), cells, "{file}");
    }
}
