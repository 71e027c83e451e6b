//! The SEAFL benchmark harness. Started by `benchmark/run`, which stages and
//! builds the tree first; see `benchmark/README.md`.
//!
//! ```text
//! seafl-benchmark run --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! seafl-benchmark suite [--seed N] [--runs K] [--seconds S]           every workload, both kinds
//! seafl-benchmark check                                                smoke pass and self-tests
//! seafl-benchmark compare A.json B.json --manifest BENCHMARK.json     regression verdicts
//! ```
//! Every command takes `--out-dir DIR` (default `benchmark/out`): the only
//! place the harness writes.

mod bench;
mod compare;
mod host;
mod json;
mod probes;
mod selftest;
mod stats;
mod trace;
mod workloads;

use bench::{run_workload, RunArgs, RunOutcome};
use json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Scale, Workload};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// `--key value` options after the subcommand, plus positional arguments.
struct Args {
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut options, mut positional) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    options.push((key.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { options, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?} as a number")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    obj(metrics.iter().map(|m| {
        (m.name.clone(), obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]))
    }))
}

/// The line the benchmark contract asks for.
fn contract_line(outcome: &RunOutcome) -> String {
    obj([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
    .compact()
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run`: one workload, one kind of metrics; the result is the last line of
/// standard output, everything else goes to standard error.
fn cmd_run(args: &Args) -> Result<i32, String> {
    let name = args.get("workload").ok_or("run needs --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let run = RunArgs {
        workload,
        seed: args.number("seed", 1u64)?,
        seconds: args.number("seconds", 15.0f64)?,
        trace,
        scale: Scale::Full,
        out_dir: args.out_dir(),
    };
    std::fs::create_dir_all(&run.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", run.out_dir.display()))?;
    let outcome = run_workload(&run);
    for failure in &outcome.failures {
        eprintln!("FAILED {}: {failure}", workload.name());
    }
    let doc = obj([
        ("host", host::fingerprint()),
        ("run", outcome.detail.clone()),
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    let file = format!("{}.seed{}.trace{}.json", workload.name(), run.seed, trace as u8);
    write_json(&run.out_dir.join(file), &doc)?;
    println!("{}", contract_line(&outcome));
    Ok(0)
}

/// Start this executable again as `run …` and return what it printed last.
/// One process per run keeps `peak_rss_mb` a property of one workload.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("the {} run exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    Json::parse(last).map_err(|e| format!("the run's result line is not JSON: {e}"))
}

/// `metrics` of a contract line as `{name: value}`.
fn values_of(line: &Json) -> Json {
    obj(line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null))))
}

fn print_metrics(title: &str, line: &Json) {
    println!("{title}");
    for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<44} {value:>16.6} {unit}");
    }
}

/// `suite`: every workload with tracing off (`--runs` seeds each), then once
/// traced; prints every metric by name with its unit and writes
/// `results.json`, the input of `compare`.
fn cmd_suite(args: &Args) -> Result<i32, String> {
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let seed: u64 = args.number("seed", 1)?;
    let runs: u64 = args.number("runs", 1)?;
    let seconds: f64 = args.number("seconds", 15.0)?;
    let results_path =
        args.get("results").map(PathBuf::from).unwrap_or_else(|| out_dir.join("results.json"));
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut run_docs = Vec::new();
        for s in seed..seed + runs {
            let line = child_run(workload, s, seconds, false, &out_dir)?;
            print_metrics(&format!("== {} seed {s}: end to end", workload.name()), &line);
            all_correct &= line.get("correct") == Some(&Json::Bool(true));
            let detail = Json::parse(
                &std::fs::read_to_string(
                    out_dir.join(format!("{}.seed{s}.trace0.json", workload.name())),
                )
                .map_err(|e| format!("cannot read the run's result file: {e}"))?,
            )?;
            run_docs.push(obj([
                ("seed", Json::from(s)),
                ("correct", line.get("correct").cloned().unwrap_or(Json::Null)),
                ("attempted", line.get("attempted").cloned().unwrap_or(Json::Null)),
                ("failed", line.get("failed").cloned().unwrap_or(Json::Null)),
                ("end_to_end", values_of(&line)),
                (
                    "repetitions",
                    detail
                        .get("run")
                        .and_then(|r| r.get("repetitions"))
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
            ]));
        }
        let traced = child_run(workload, seed, seconds, true, &out_dir)?;
        print_metrics(&format!("== {} seed {seed}: per layer", workload.name()), &traced);
        all_correct &= traced.get("correct") == Some(&Json::Bool(true));
        workloads.push((
            workload.name(),
            obj([
                ("runs", Json::Arr(run_docs)),
                (
                    "traced",
                    obj([
                        ("seed", Json::from(seed)),
                        ("correct", traced.get("correct").cloned().unwrap_or(Json::Null)),
                        ("per_layer", values_of(&traced)),
                    ]),
                ),
            ]),
        ));
    }
    let doc = obj([
        ("schema", Json::from(1u64)),
        ("host", host::fingerprint()),
        ("seconds", Json::Num(seconds)),
        ("workloads", obj(workloads)),
    ]);
    write_json(&results_path, &doc)?;
    println!("results: {}", results_path.display());
    if all_correct {
        println!("all correctness checks passed");
        Ok(0)
    } else {
        println!("FAILED: at least one correctness check did not pass (see above)");
        Ok(1)
    }
}

/// `check`: the self-tests, then a miniature of every workload, traced and
/// untraced, through all correctness checks. No timing claims.
fn cmd_check(args: &Args) -> Result<i32, String> {
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut ok = true;
    for (name, result) in selftest::run_all() {
        match result {
            Ok(()) => println!("ok    {name}"),
            Err(e) => {
                ok = false;
                println!("FAIL  {name}: {e}");
            }
        }
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run_workload(&RunArgs {
                workload,
                seed: args.number("seed", 1u64)?,
                seconds: 0.0,
                trace,
                scale: Scale::Check,
                out_dir: out_dir.clone(),
            });
            let kind = if trace { "traced" } else { "untraced" };
            if outcome.correct {
                println!(
                    "ok    {} ({kind}): {} updates, {} metrics",
                    workload.name(),
                    outcome.attempted,
                    outcome.metrics.len()
                );
            } else {
                ok = false;
                for failure in &outcome.failures {
                    println!("FAIL  {} ({kind}): {failure}", workload.name());
                }
            }
        }
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(if ok { 0 } else { 1 })
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let manifest = load(args.get("manifest").unwrap_or("BENCHMARK.json"))?;
    let ok = compare::compare(&manifest, &load(a)?, &load(b)?)?;
    println!("{}", if ok { "no regression" } else { "REGRESSION (or a higher failed share)" });
    Ok(if ok { 0 } else { 1 })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "run" => cmd_run(&args),
            "suite" => cmd_suite(&args),
            "check" => cmd_check(&args),
            "compare" => cmd_compare(&args),
            other => Err(format!("unknown command {other:?} (run, suite, check, compare)")),
        }),
        None => Err("no command (run, suite, check, compare)".into()),
    };
    let code = result.unwrap_or_else(|e| {
        eprintln!("seafl-benchmark: {e}");
        2
    });
    // `exit`, not a return: a repetition the watchdog gave up on may still
    // hold a thread.
    std::io::Write::flush(&mut std::io::stdout()).ok();
    std::process::exit(code)
}
