//! `lds_benchmark` — the LDS store measured end to end and layer by layer.
//!
//! ```text
//! lds_benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload, each in a fresh child process: a measured run
//!     (end-to-end metrics, tracing off) and a traced run (per-layer metrics)
//! lds_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (the form the driver of BENCHMARK.json calls)
//! lds_benchmark compare A.json B.json [--bounds BENCHMARK.json]
//!     two `--out` files held against the regression bounds
//! ```
//!
//! See README.md for the workloads, the metrics and what each should move.

mod compare;
mod json;
mod ladder;
mod load;
mod ops;
mod run;
mod spec;
mod stamp;
mod stats;
mod target;

use json::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.smoke && !seconds_given {
        parsed.seconds = 1.0;
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("lds_benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => every_workload(&args),
    }
}

fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("lds_benchmark: no workload `{name}`; there are {known:?}");
        return ExitCode::from(2);
    };
    let options = run::Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let outcome = if args.trace {
        run::traced(workload, &options)
    } else {
        run::measured(workload, &options)
    };
    println!("{}", outcome.to_json().render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this executable again for one workload and returns its result
/// object and the `reconcile` lines it printed; its output is passed on.
fn child_run(name: &str, args: &Args, trace: bool) -> Result<(Json, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| e.to_string())?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    let mut reconcile = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.starts_with("reconcile ") {
            reconcile.push(line.clone());
        }
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = json::parse(&last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !status.success() {
        eprintln!(
            "lds_benchmark: {name} (trace {}) exited with {status}",
            trace as u8
        );
    }
    Ok((result, reconcile))
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn every_workload(args: &Args) -> ExitCode {
    let provenance = Json::obj([
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::str(tool_version("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("window_s", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "deployment",
            Json::str(format!(
                "f1={} f2={} k={} d={} MBR, one cluster, {} closed-loop clients",
                spec::F1,
                spec::F2,
                spec::K,
                spec::D,
                spec::CLIENTS
            )),
        ),
    ]);
    println!("provenance {}", provenance.render());

    let mut all_correct = true;
    let mut reconcile = Vec::new();
    let mut workloads = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut entry = vec![
            (
                "transport".to_string(),
                Json::str(workload.deploy.transport()),
            ),
            ("profile".to_string(), Json::str(workload.deploy.profile())),
        ];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match child_run(workload.name, args, trace) {
                Ok((result, lines)) => {
                    reconcile.extend(lines);
                    all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    attempted += result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
                    entry.push((key.to_string(), metrics));
                }
                Err(error) => {
                    eprintln!("lds_benchmark: {error}");
                    all_correct = false;
                }
            }
        }
        entry.push(("attempted".to_string(), Json::Num(attempted)));
        entry.push(("failed".to_string(), Json::Num(failed)));
        println!(
            "{} failed_fraction {}",
            workload.name,
            failed / attempted.max(1.0)
        );
        workloads.push((workload.name.to_string(), Json::Obj(entry)));
    }

    println!("\nreconciliation (idle critical path against the ladder; load against idle)");
    for line in &reconcile {
        println!("{}", line.trim_start_matches("reconcile "));
    }
    let document = Json::obj([
        ("provenance", provenance),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = document.render();
    if let Some(path) = &args.out {
        if let Err(error) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("lds_benchmark: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    println!("{text}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
