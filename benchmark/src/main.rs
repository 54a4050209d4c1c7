//! The benchmark behind `BENCHMARK.json`: one workload per process,
//! every metric printed by name, correctness checked on every run.
//!
//! ```text
//! vod-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! vod-benchmark --all          [--seed N] [--seconds S] [--trace 0|1]
//! vod-benchmark --repeat-check [--seed N] [--seconds S]
//! ```
//!
//! The harness measures each layer from outside, by timing calls into
//! the crates' public functions; the crates carry no timer for it.

mod env;
mod metrics;
mod spans;
mod stats;
mod workloads;

use metrics::{one_line, Better, MetricDef, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use vod_json::snapshot::write_atomic;
use vod_json::{obj, ToJson, Value};
use workloads::{Ctx, Workload, WORKLOADS};

/// Default seed; 11 is the held-out one.
const DEFAULT_SEED: u64 = 3;
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    repeat_check: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        repeat_check: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--repeat-check" => args.repeat_check = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.repeat_check);
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --repeat-check".into());
    }
    Ok(args)
}

fn samples_value(ctx: &Ctx) -> Value {
    Value::Obj(
        ctx.report
            .recorded()
            .map(|(def, samples)| {
                let mut fields = vec![
                    ("unit", def.unit.to_value()),
                    ("better", def.better.name().to_value()),
                    ("median", stats::median(samples).to_value()),
                    ("count", samples.len().to_value()),
                ];
                if samples.len() >= 2 {
                    let (q1, q3) = stats::quartiles(samples);
                    fields.push(("q1", q1.to_value()));
                    fields.push(("q3", q3.to_value()));
                }
                fields.push((
                    "samples",
                    Value::Arr(samples.iter().map(|s| s.to_value()).collect()),
                ));
                (def.name.to_string(), obj(fields))
            })
            .collect(),
    )
}

/// Run one workload in this process. The last line printed is the
/// result object; `out/<workload>.json` keeps every raw sample under
/// the machine stamp.
fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    println!("# {}: {}", w.name, w.why);
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, args.smoke);
    w.run(&mut ctx);
    ctx.report.finish();

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (def, samples) in ctx.report.recorded() {
        println!(
            "{} {} {}  (n={})",
            def.name,
            stats::median(samples),
            def.unit,
            samples.len()
        );
    }
    for failure in &ctx.report.failures {
        println!("FAILED: {failure}");
    }

    let out = env::out_dir();
    let stamp = env::stamp(w.name, args.seed, args.seconds, args.trace, args.smoke);
    let result = ctx.report.result_value(table);
    let doc = obj(vec![
        ("stamp", stamp),
        ("result", result.clone()),
        (
            "failures",
            Value::Arr(ctx.report.failures.iter().map(|f| f.to_value()).collect()),
        ),
        ("metrics", samples_value(&ctx)),
    ]);
    let written = std::fs::create_dir_all(&out)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let path = out.join(format!("{}.json", w.name));
            write_atomic(&path, doc.to_string_pretty().as_bytes()).map_err(|e| e.to_string())
        })
        .and_then(|()| {
            if !args.trace {
                return Ok(());
            }
            let spans = spans::spans_to_value(ctx.tracer.spans(), w.name);
            let path = out.join(format!("{}.trace.json", w.name));
            write_atomic(&path, spans.to_string_pretty().as_bytes()).map_err(|e| e.to_string())
        });
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", one_line(&result));
    if ctx.report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `workload` in a fresh process of this executable and return the
/// end-to-end values of its result line.
fn run_child(workload: &str, args: &Args, echo: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let result = text
        .lines()
        .last()
        .and_then(|l| Value::parse(l).ok())
        .ok_or_else(|| format!("{workload} printed no result line"))?;
    let metrics = result.get("metrics");
    END_TO_END
        .iter()
        .map(|m| {
            metrics
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload} reported no {}", m.name))
        })
        .collect()
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Every workload twice, each run in a fresh process; a metric passes
/// when neither run is worse than the other by more than its bound.
fn repeat_check(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let runs =
            run_child(w.name, args, false).and_then(|a| Ok((a, run_child(w.name, args, false)?)));
        let (a, b) = match runs {
            Ok(pair) => pair,
            Err(e) => {
                println!("{}: {e}", w.name);
                ok = false;
                continue;
            }
        };
        for (def, (a, b)) in END_TO_END.iter().zip(a.into_iter().zip(b)) {
            let worse = worsening(def, a, b).max(worsening(def, b, a));
            let pass = worse <= def.bound;
            ok &= pass;
            println!(
                "{} {} {a} {b} {} diff {:.2}% bound {:.0}% {}",
                w.name,
                def.name,
                def.unit,
                100.0 * worse,
                100.0 * def.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        return repeat_check(&args);
    }
    if args.all {
        let mut ok = true;
        for w in WORKLOADS {
            println!("== {}", w.name);
            if let Err(e) = run_child(w.name, &args, true) {
                println!("{e}");
                ok = false;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let name = args.workload.as_deref().unwrap_or_default();
    match workloads::find(name) {
        Some(w) => run_workload(w, &args),
        None => {
            eprintln!("unknown workload {name:?}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload replay-week --seed 11 --seconds 7 --trace 1",
        ))
        .expect("the driver's arguments");
        assert_eq!(a.workload.as_deref(), Some("replay-week"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (11, 7.0, true, false)
        );
        let d = parse_args(&argv("--all")).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            "",
            "--workload",
            "--workload a --all",
            "--all --trace 2",
            "--all --seconds -1",
            "--all --seed x",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 2.0, 1.0) < 0.0);
        let higher = MetricDef {
            better: Better::Higher,
            ..*lower
        };
        assert!((worsening(&higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
    }

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// crate say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    fields
                        .iter()
                        .map(|f| match e.get(f) {
                            Some(Value::Str(s)) => s.clone(),
                            Some(Value::Num(n)) => n.to_string(),
                            other => panic!("{key}.{f}: {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(names("workloads", &["name", "why"]), workloads);
        let row = |m: &MetricDef| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
            ]
        };
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                let mut r = row(m);
                r.push(m.bound.to_string());
                r
            })
            .collect();
        assert_eq!(
            names("end_to_end", &["name", "unit", "better", "bound"]),
            e2e
        );
        let layers: Vec<Vec<String>> = PER_LAYER.iter().map(row).collect();
        assert_eq!(names("per_layer", &["name", "unit", "better"]), layers);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
