//! `lds_benchmark compare A.json B.json`: two `--out` files, A the baseline
//! and B the candidate, held against the bounds in `BENCHMARK.json`.

use crate::json::{self, Json};
use std::process::ExitCode;

/// Simulator counts that must repeat exactly between any two runs.
const EXACT: [&str; 6] = [
    "core.msgs_per_write",
    "core.msgs_per_read_idle",
    "core.write_cost_norm",
    "core.read_cost_idle_norm",
    "core.read_cost_concurrent_norm",
    "core.l2_storage_norm",
];

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("bounds file has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "malformed end_to_end entry in the bounds file".to_string())
}

fn metric(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a;
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Prints one row per (workload, metric); returns how many rows failed.
fn report(a: &Json, b: &Json, bounds: &[Bound]) -> Result<usize, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("first file has no workloads")?;
    let mut failures = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, in_a) in workloads {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("second file lacks workload {name}"))?;
        for bound in bounds {
            let (Some(va), Some(vb)) = (
                metric(in_a, "end_to_end", &bound.name),
                metric(in_b, "end_to_end", &bound.name),
            ) else {
                println!("{name:<16} {:<18} missing in one file  FAIL", bound.name);
                failures += 1;
                continue;
            };
            let worse = worsening(va, vb, bound.lower_is_better);
            let pass = worse <= bound.bound;
            failures += !pass as usize;
            println!(
                "{name:<16} {:<18} {va:>14.3} {vb:>14.3} {:>8.1}% {:>6.0}%  {}",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        // failed_fraction may not rise at all.
        let fraction = |w: &Json| -> Option<f64> {
            Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
        };
        let (fa, fb) = (fraction(in_a).unwrap_or(1.0), fraction(in_b).unwrap_or(1.0));
        let pass = fb <= fa;
        failures += !pass as usize;
        println!(
            "{name:<16} {:<18} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {}",
            "failed_fraction",
            "",
            "none",
            if pass { "PASS" } else { "FAIL" }
        );
        for exact in EXACT {
            let (va, vb) = (
                metric(in_a, "per_layer", exact),
                metric(in_b, "per_layer", exact),
            );
            if va.is_none() && vb.is_none() {
                continue; // neither file has a traced run
            }
            let pass = va == vb;
            failures += !pass as usize;
            println!(
                "{name:<16} {exact:<30} {:>18} {:>18}  {}",
                va.map_or("-".into(), |v| v.to_string()),
                vb.map_or("-".into(), |v| v.to_string()),
                if pass { "EXACT" } else { "DIFFERS" }
            );
        }
    }
    Ok(failures)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => match it.next() {
                Some(path) => bounds_path = path.clone(),
                None => {
                    eprintln!("lds_benchmark compare: --bounds needs a path");
                    return ExitCode::from(2);
                }
            },
            path => files.push(path.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("usage: lds_benchmark compare A.json B.json [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let outcome = (|| {
        let bounds = bounds(&load(&bounds_path)?)?;
        report(&load(a)?, &load(b)?, &bounds)
    })();
    match outcome {
        Ok(0) => {
            println!("every pair is within its bound");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            println!("{failures} rows failed");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("lds_benchmark compare: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(ops: f64, p50: f64, failed: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    (
                        "end_to_end",
                        Json::obj([("ops_per_s", value(ops)), ("write_p50_us", value(p50))]),
                    ),
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(failed)),
                ]),
            )]),
        )])
    }

    fn test_bounds() -> Vec<Bound> {
        let doc = json::parse(
            r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "write_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds(&doc).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 120.0, true) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rows_pass_within_the_bound_and_fail_beyond_it() {
        let bounds = test_bounds();
        let base = file(1000.0, 500.0, 0.0);
        assert_eq!(report(&base, &file(950.0, 540.0, 0.0), &bounds), Ok(0));
        assert_eq!(report(&base, &file(1500.0, 300.0, 0.0), &bounds), Ok(0));
        assert_eq!(report(&base, &file(880.0, 500.0, 0.0), &bounds), Ok(1));
        assert_eq!(report(&base, &file(1000.0, 560.0, 0.0), &bounds), Ok(1));
        assert_eq!(report(&base, &file(1000.0, 500.0, 1.0), &bounds), Ok(1));
    }
}
