//! `benchmark/run compare <a.json> <b.json>`: the rule a later change is
//! judged by. Per workload × end-to-end metric: both medians and quartiles,
//! the change of the median in the metric's "worse" direction against the
//! bound `BENCHMARK.json` fixes, and `unresolved` — not `unchanged` — when
//! either side's run-to-run spread is wider than that bound.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(manifest: &Json) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k:?}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("metric name is not a string")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("metric bound is not a number")?,
            })
        })
        .collect()
}

/// The untraced runs of `workload` in a results file.
fn runs<'a>(results: &'a Json, workload: &str) -> &'a [Json] {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// One value of `metric` per run.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get("end_to_end")?.get(metric)?.as_f64()).collect()
}

/// Failed updates as a share of attempted ones, over all runs.
fn failed_share(runs: &[Json]) -> f64 {
    let sum = |key: &str| -> f64 { runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum() };
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        0.0
    }
}

/// Prints the table; `Ok(true)` when `b` is no worse than `a` anywhere.
pub fn compare(manifest: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let bounds = bounds(manifest)?;
    let workloads: Vec<String> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    let mut ok = true;
    println!(
        "{:<18} {:<22} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median a",
        "quartiles a",
        "median b",
        "quartiles b",
        "worse %",
        "bound"
    );
    for w in &workloads {
        let (runs_a, runs_b) = (runs(a, w), runs(b, w));
        for m in &bounds {
            let (va, vb) = (values(runs_a, &m.name), values(runs_b, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<18} {:<22} missing on one side", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // Positive = b is worse than a, as a share of a's median.
            let worse = if m.lower_is_better { (mb - ma) / ma.abs() } else { (ma - mb) / ma.abs() };
            let verdict = if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else if spread(&va) > m.bound || spread(&vb) > m.bound {
                "unresolved"
            } else if worse < -m.bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{w:<18} {:<22} {ma:>12.5} {:>10.5}…{:<10.5} {mb:>12.5} {:>10.5}…{:<10.5} {:>8.2} {:>6.0}  {verdict}",
                m.name,
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let (fa, fb) = (failed_share(runs_a), failed_share(runs_b));
        if fb > fa {
            println!("{w:<18} failed share rose from {fa:.4} to {fb:.4}  REGRESSION");
            ok = false;
        }
    }
    Ok(ok)
}
