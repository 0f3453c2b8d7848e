//! The benchmark at small sizes: the metric names it prints are the
//! ones `BENCHMARK.json` declares, and damaged artifacts or store
//! entries trip a correctness check instead of crashing the run.

use condspec_engine::{run_sweep, Sweep, SweepOptions};
use condspec_perfbench::{
    artifact_files, fig5, reference, Gates, Size, Workload, END_TO_END, PER_LAYER, WORKERS,
};
use condspec_stats::Json;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), listed(&END_TO_END));
    assert_eq!(declared("per_layer"), listed(&PER_LAYER));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name).to_vec(),
        "every workload is declared, in order"
    );

    let cwd = scratch("names");
    std::fs::create_dir_all(&cwd).unwrap();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_condspec-perfbench"))
                .current_dir(&cwd)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "7",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", if trace { "1" } else { "0" }, "--size", "small"])
                .output()
                .expect("the benchmark starts");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let printed = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
            assert_eq!(
                printed.get("correct").and_then(Json::as_bool),
                Some(true),
                "{} trace={trace}: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let names: Vec<(String, String)> = match printed.get("metrics") {
                Some(Json::Object(members)) => members
                    .iter()
                    .map(|(n, v)| {
                        (
                            n.clone(),
                            v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("metrics is an object"),
            };
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(names, listed(expected), "{} trace={trace}", workload.name());
            let keys: Vec<&str> = match &printed {
                Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// The small Figure 5 sweep, run with a store, in its own directory.
fn small_fig5(name: &str) -> (PathBuf, Sweep, condspec_engine::SweepResults, PathBuf) {
    let dir = scratch(name);
    let sweep = Sweep::by_name("fig5").unwrap().scaled(Some(1), Some(1));
    let opts = SweepOptions {
        workers: WORKERS,
        root: dir.join("runs"),
        store: Some(dir.join("store")),
        quiet: true,
        ..SweepOptions::default()
    };
    let out = run_sweep(&sweep, &opts).expect("small fig5 runs");
    (dir, sweep, out.results, out.dir)
}

fn flip_a_byte(path: &Path, from_end: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() - from_end;
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn a_flipped_artifact_byte_trips_the_digest_check() {
    let (dir, sweep, results, run_dir) = small_fig5("flipped-artifact");
    let reference = reference::fig5(Size::Small);
    let check = |gates: &mut Gates| {
        let files = artifact_files(&run_dir).unwrap();
        fig5::check_outputs(sweep.jobs.len(), 0, &results, &files, reference, gates);
    };
    let mut clean = Gates::default();
    check(&mut clean);
    assert_eq!(clean.failed, 0, "the untouched sweep passes");

    let files = artifact_files(&run_dir).unwrap();
    let (name, bytes) = &files[files.len() / 2];
    flip_a_byte(&run_dir.join(name), bytes.len() / 2);
    let mut flipped = Gates::default();
    check(&mut flipped);
    assert_eq!(flipped.failed, 1, "only the digest check fails");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_store_byte_trips_the_store_check() {
    let (dir, sweep, results, _) = small_fig5("flipped-store");
    let store = dir.join("store");
    assert_eq!(fig5::check_store(&sweep.jobs, &results, &store), Ok(()));

    let shard = std::fs::read_dir(store.join("objects"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let entry = std::fs::read_dir(shard)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    flip_a_byte(&entry, 3);
    let err = fig5::check_store(&sweep.jobs, &results, &store).unwrap_err();
    assert!(err.contains("missing or different"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
