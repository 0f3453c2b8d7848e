//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <fig5-cold|sampled-long> --seed <n>
//!           --seconds <s> --trace <0|1> [--size small]
//! perfbench --compare <result.json> <result.json>
//! perfbench --reference [--size small]
//! ```
//!
//! A run prints a header line (workload, seed, host block) and, as its
//! last line, the result object. It also writes the result with its
//! host block under `.bench_work/results/`, and a traced run its spans
//! under `.bench_work/spans/`. `--compare` refuses results measured on
//! different hosts.

use condspec_perfbench::host::{same_host, Host};
use condspec_perfbench::{run, sampled, Options, Size, Workload};
use condspec_stats::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig5-cold|sampled-long> \
                     --seed <n> --seconds <s> --trace <0|1> [--size small]\n       \
                     perfbench --compare <a.json> <b.json>\n       \
                     perfbench --reference [--size small]";

/// Where runs keep their scratch files, relative to the working
/// directory (the repository root).
const WORK_ROOT: &str = ".bench_work";

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
    Reference(Size),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut size) = (None, None, None, Size::Full);
    let mut reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "small" => Size::Small,
                    "full" => Size::Full,
                    other => return Err(format!("--size takes small or full, not {other}")),
                }
            }
            "--compare" => {
                let a = value()?.into();
                let b = value()?.into();
                return Ok(Command::Compare(a, b));
            }
            "--reference" => reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if reference {
        return Ok(Command::Reference(size));
    }
    let seed = seed.ok_or("--seed is required")?;
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        work: Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id())),
    }))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(opts: &Options) -> Result<(), String> {
    let host = Host::current().to_json();
    let tag = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let outcome = run(opts);
    let cleanup = condspec_perfbench::remove_dir(&opts.work);
    let outcome = outcome?;
    cleanup?;
    let result = outcome.result_json();
    let header = Json::object(vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", Json::from(opts.seed)),
        ("trace", Json::from(opts.trace)),
        ("rounds", Json::from(outcome.rounds as u64)),
        ("host", host.clone()),
    ]);
    if let Some(spans) = &outcome.spans {
        write_json(
            &Path::new(WORK_ROOT)
                .join("spans")
                .join(format!("{tag}.json")),
            spans,
        )?;
    }
    let record = Json::object(vec![("run", header.clone()), ("result", result.clone())]);
    write_json(
        &Path::new(WORK_ROOT)
            .join("results")
            .join(format!("{tag}.json")),
        &record,
    )?;
    println!("{}", header.render());
    println!("{}", result.render());
    Ok(())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (a, b) = (load(a)?, load(b)?);
    let host = |doc: &Json| doc.get("run").and_then(|r| r.get("host")).cloned();
    let (ha, hb) = (host(&a), host(&b));
    match (&ha, &hb) {
        (Some(ha), Some(hb)) => {
            same_host(ha, hb).map_err(|e| format!("refusing to compare: {e}"))?
        }
        _ => return Err("refusing to compare: a result has no host block".to_string()),
    }
    let metrics = |doc: &Json| match doc.get("result").and_then(|r| r.get("metrics")) {
        Some(Json::Object(members)) => members.clone(),
        _ => Vec::new(),
    };
    let theirs = metrics(&b);
    println!("{:<36} {:>14} {:>14} {:>8}", "metric", "a", "b", "b/a");
    for (name, value) in metrics(&a) {
        let x = value
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let y = theirs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.get("value")?.as_f64())
            .unwrap_or(f64::NAN);
        println!("{name:<36} {x:>14.4} {y:>14.4} {:>8.3}", y / x);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|command| match command {
        Command::Run(opts) => run_workload(&opts),
        Command::Compare(a, b) => compare(&a, &b),
        Command::Reference(size) => {
            sampled::print_detailed_references(size);
            Ok(())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
