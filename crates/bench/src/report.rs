//! The one path every row of the arm table runs through ([`run_row`]):
//! result tables, CSV and JSON output, and the rows' own hooks.

use crate::profiles::Row;
use crate::{has_flag, run_arms, ArmResult};
use seafl_core::obs::export::{u64_array, JsonObject};
use seafl_core::obs::{names, ObsSummary};
use seafl_core::{metrics, RunResult};
use std::fs;
use std::path::PathBuf;

/// A row's own output: called with the row and one pass's results, after
/// the shared tables.
pub(crate) type Hook = fn(&Row, &[ArmResult]);

/// Run one row once per entry of `passes` (`Some(t)` sets every arm's
/// `threads` to `t`), printing the time-to-target table, the curves and
/// the hook after each pass; then write one CSV and one `<stem>_runs.json`
/// over all passes, and check every run against its `threads = 1` twin.
pub fn run_row(row: &Row, passes: &[Option<usize>]) {
    let mut all = Vec::new();
    for &threads in passes {
        let width = threads.map_or(String::new(), |t| format!(" (threads={t})"));
        println!("=== {}{width} ===", row.title);
        let mut arms = row.arms.clone();
        for arm in arms.iter_mut() {
            arm.config.threads = threads.unwrap_or(arm.config.threads);
        }
        let results = run_arms(arms);
        print_time_to_target(&results, &row.targets);
        if row.curves {
            print_curves(&results, 8);
        }
        if let Some(hook) = row.hook {
            hook(row, &results);
        }
        println!();
        all.extend(results);
    }
    write_csv(&row.stem, &all, row.grad_norms);
    write_run_json(&format!("{}_runs", row.stem), &all);
    // The TrainerPool guarantee: bitwise identical at any width.
    for a in &all {
        let Some(base) = threads1_twin(&all, a) else { continue };
        let (x, y) = (&base.result, &a.result);
        let matches = x.accuracy == y.accuracy
            && x.rounds == y.rounds
            && x.total_updates == y.total_updates
            && x.model_digest == y.model_digest
            && x.trace.digest() == y.trace.digest();
        let verdict = if matches { "yes" } else { "NO (DETERMINISM BUG)" };
        let (label, threads, speedup) = (&a.label, a.threads, base.wall_secs / a.wall_secs);
        println!(
            "{label}: threads={threads} speedup {speedup:.2}x vs threads=1, \
             bitwise identical: {verdict}"
        );
    }
}

/// The `threads = 1` run with `a`'s label, unless `a` is one itself.
fn threads1_twin<'a>(results: &'a [ArmResult], a: &ArmResult) -> Option<&'a ArmResult> {
    if a.threads == 1 {
        return None;
    }
    results.iter().find(|b| b.threads == 1 && b.label == a.label)
}

/// The first result whose label starts with `prefix`.
pub(crate) fn by_label<'a>(results: &'a [ArmResult], prefix: &str) -> &'a RunResult {
    let found = results.iter().find(|a| a.label.starts_with(prefix));
    &found.unwrap_or_else(|| panic!("no arm labelled {prefix}…")).result
}

/// Write `body` to `target/experiments/<file>`.
fn write_file(file: &str, body: String) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("failed to create {}: {e}", dir.display()));
    let path = dir.join(file);
    fs::write(&path, body).unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    path
}

/// Print the headline table: simulated seconds to each target accuracy
/// per arm — the quantity every figure in the paper reports — plus
/// rounds, updates, staleness p50/p95 (rounds), mean aggregation-weight
/// entropy (nats) and host wall-clock; below it, each arm's four largest
/// wall-clock phases. Unmeasured cells render as `—`.
pub(crate) fn print_time_to_target(results: &[ArmResult], targets: &[f64]) {
    print!("{:<18}", "arm");
    for t in targets {
        print!(" | {:>10}", format!("t→{:.0}% (s)", t * 100.0));
    }
    println!(" | best acc | rounds | updates | stale p50/p95 | entropy | wall (s)");
    let width = 18 + targets.len() * 13 + 67;
    println!("{}", "-".repeat(width));
    for a in results {
        let r = &a.result;
        print!("{:<18}", a.label);
        for &t in targets {
            match r.time_to_accuracy(t) {
                Some(secs) => print!(" | {secs:>10.0}"),
                None => print!(" | {:>10}", "—"),
            }
        }
        let hist = |name| r.obs.histograms.get(name).filter(|h| h.count > 0);
        let stale = match hist(names::STALENESS_ROUNDS) {
            Some(h) => format!("{:>6.1}/{:<6.1}", h.p50, h.p95),
            None => format!("{:>13}", "—"),
        };
        let entropy = match hist(names::WEIGHT_ENTROPY_NATS) {
            Some(h) => format!("{:>7.3}", h.sum / h.count as f64),
            None => format!("{:>7}", "—"),
        };
        println!(
            " | {:>8.3} | {:>6} | {:>7} | {stale} | {entropy} | {:>8.1}",
            r.best_accuracy(),
            r.rounds,
            r.total_updates,
            a.wall_secs
        );
    }
    let lines: Vec<String> = results
        .iter()
        .filter_map(|a| Some(format!("  {:<18} {}", a.label, phase_line(&a.result.obs)?)))
        .collect();
    if !lines.is_empty() {
        println!("wall-clock phases (top 4):");
        println!("{}", lines.join("\n"));
    }
}

/// `total X.XXs: name1 a.aas, name2 b.bbs, …` over the four largest
/// nonzero phases, or `None` when the run recorded no phase time.
fn phase_line(obs: &ObsSummary) -> Option<String> {
    let mut phases: Vec<_> = obs.phases.iter().filter(|p| p.secs > 0.0).collect();
    if phases.is_empty() {
        return None;
    }
    phases.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    let total: f64 = obs.phases.iter().map(|p| p.secs).sum();
    let top: Vec<String> =
        phases.iter().take(4).map(|p| format!("{} {:.2}s", p.name, p.secs)).collect();
    Some(format!("total {total:.2}s: {}", top.join(", ")))
}

/// Print compact accuracy-vs-time curves (downsampled).
pub(crate) fn print_curves(results: &[ArmResult], points: usize) {
    for a in results {
        let d = metrics::downsample(&a.result.accuracy, points.max(2));
        let line: Vec<String> =
            d.iter().map(|(t, acc)| format!("{t:.0}s:{:.0}%", acc * 100.0)).collect();
        println!("  {:<18} {}", a.label, line.join("  "));
    }
}

/// Write every arm's full series into one long-format CSV: `<stem>.csv`
/// with `arm,sim_seconds,accuracy`, or `<stem>_grad_norms.csv` with
/// `arm,sim_seconds,grad_norm_sq`.
pub(crate) fn write_csv(stem: &str, results: &[ArmResult], grad_norms: bool) -> PathBuf {
    let (file, column) = if grad_norms {
        (format!("{stem}_grad_norms.csv"), "grad_norm_sq")
    } else {
        (format!("{stem}.csv"), "accuracy")
    };
    let mut body = format!("arm,sim_seconds,{column}\n");
    for a in results {
        let r = &a.result;
        for (t, v) in if grad_norms { &r.grad_norms } else { &r.accuracy } {
            let v = if grad_norms { format!("{v:.6e}") } else { format!("{v:.5}") };
            body.push_str(&format!("{},{t:.3},{v}\n", a.label));
        }
    }
    write_file(&file, body)
}

/// Write one JSON record per arm — a pretty-enough array, one record per
/// line: the run's headline numbers plus the host wall-clock, and — when a
/// `threads = 1` run with the same label is present in the slice — the
/// parallel speedup over it.
pub(crate) fn write_run_json(name: &str, results: &[ArmResult]) -> PathBuf {
    let records: Vec<String> = results
        .iter()
        .map(|a| {
            let speedup = threads1_twin(results, a).map(|b| b.wall_secs / a.wall_secs);
            let r = &a.result;
            let d = r.detection();
            let detection = JsonObject::new()
                .u64("true_positives", d.true_positives as u64)
                .u64("false_positives", d.false_positives as u64)
                .u64("false_negatives", d.false_negatives as u64)
                .f64("precision", d.precision)
                .f64("recall", d.recall)
                .finish();
            let bytes_curve = array(r.bytes_curve.iter().map(|&(raw, enc)| u64_array(&[raw, enc])));
            JsonObject::new()
                .str("label", &a.label)
                .str("algorithm", r.algorithm)
                .u64("threads", a.threads as u64)
                // The GEMM micro-kernel the build dispatched to.
                .str("kernel", seafl_tensor::kernel_variant())
                .f64("wall_secs", a.wall_secs)
                .f64("sim_time_end", r.sim_time_end)
                .u64("rounds", r.rounds)
                .u64("total_updates", r.total_updates as u64)
                .f64("best_accuracy", r.best_accuracy())
                .f64("final_accuracy", r.final_accuracy())
                .str("termination", &format!("{:?}", r.termination))
                // Final model and event-trace fingerprints.
                .str("model_digest", &format!("{:016x}", r.model_digest))
                .str("trace_digest", &format!("{:016x}", r.trace.digest()))
                .opt_f64("speedup_vs_threads1", speedup)
                // Update bytes through the codec, per evaluation as `[raw, encoded]`.
                .u64("codec_bytes_raw", r.codec_bytes_raw)
                .u64("codec_bytes_encoded", r.codec_bytes_encoded)
                .raw("bytes_curve", &bytes_curve)
                // Attacker impact and the robust layer's screening record.
                .u64("attacked_updates", r.attacked_updates as u64)
                .raw("attackers", &usize_array(&r.attackers))
                .u64("screened_updates", r.screened_updates as u64)
                .u64("clipped_updates", r.clipped_updates as u64)
                .raw("screened_clients", &usize_array(&r.screened_clients))
                .raw("detection", &detection)
                .raw("obs", &obs_json(&r.obs))
                .finish()
        })
        .collect();
    write_file(&format!("{name}.json"), format!("[\n{}\n]\n", records.join(",\n")))
}

/// `[a,b,…]` from already-rendered JSON values.
fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

fn usize_array(xs: &[usize]) -> String {
    u64_array(&xs.iter().map(|&x| x as u64).collect::<Vec<_>>())
}

/// `RunResult::obs` as one JSON object.
fn obs_json(obs: &ObsSummary) -> String {
    let phases = array(obs.phases.iter().map(|p| {
        JsonObject::new().str("name", &p.name).u64("calls", p.calls).f64("secs", p.secs).finish()
    }));
    let counters = obs.counters.iter().fold(JsonObject::new(), |o, (k, &v)| o.u64(k, v));
    let gauges = obs.gauges.iter().fold(JsonObject::new(), |o, (k, &v)| o.f64(k, v));
    let histograms = obs.histograms.iter().fold(JsonObject::new(), |o, (k, h)| {
        o.raw(
            k,
            &JsonObject::new()
                .u64("count", h.count)
                .f64("sum", h.sum)
                .f64("min", h.min)
                .f64("max", h.max)
                .f64("p50", h.p50)
                .f64("p95", h.p95)
                .finish(),
        )
    });
    let trace_events = obs.trace_events.iter().fold(JsonObject::new(), |o, (k, &v)| o.u64(k, v));
    JsonObject::new()
        .bool("enabled", obs.enabled)
        .str("registry_digest", &obs.registry_digest)
        .f64("wall_secs", obs.wall_secs)
        .raw("phases", &phases)
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &histograms.finish())
        .raw("trace_events", &trace_events.finish())
        .finish()
}

/// Render the bytes-to-target table: encoded update bytes uploaded by the
/// first evaluation at each target, per arm, plus each run's total
/// raw/encoded bytes and compression ratio. Arms with no codec data render
/// as `—`. A string, so the golden test can pin the layout.
pub(crate) fn bytes_to_target_table(results: &[ArmResult], targets: &[f64]) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "arm"));
    for t in targets {
        out.push_str(&format!(" | {:>12}", format!("B→{:.0}% (MiB)", t * 100.0)));
    }
    out.push_str(" | raw (MiB) | enc (MiB) | ratio\n");
    let width = 18 + targets.len() * 15 + 32;
    out.push_str(&format!("{}\n", "-".repeat(width)));
    for a in results {
        let r = &a.result;
        out.push_str(&format!("{:<18}", a.label));
        for &t in targets {
            match r.bytes_to_accuracy(t) {
                Some(b) => out.push_str(&format!(" | {:>12.2}", b as f64 / MIB)),
                None => out.push_str(&format!(" | {:>12}", "—")),
            }
        }
        if r.codec_bytes_raw == 0 {
            out.push_str(&format!(" | {:>9} | {:>9} | {:>5}\n", "—", "—", "—"));
        } else {
            out.push_str(&format!(
                " | {:>9.2} | {:>9.2} | {:>5.3}\n",
                r.codec_bytes_raw as f64 / MIB,
                r.codec_bytes_encoded as f64 / MIB,
                r.codec_bytes_encoded as f64 / r.codec_bytes_raw as f64,
            ));
        }
    }
    out
}

/// Print the attack-outcome table: post-attack accuracy per arm plus the
/// robust layer's screening record and its detection precision/recall
/// against the ground-truth attacker set.
pub(crate) fn print_attack_table(results: &[ArmResult]) {
    println!(
        "{:<22} | final acc | best acc | attacked | screened | clipped | precision | recall",
        "arm"
    );
    println!("{}", "-".repeat(104));
    for a in results {
        let r = &a.result;
        let d = r.detection();
        println!(
            "{:<22} | {:>9.3} | {:>8.3} | {:>8} | {:>8} | {:>7} | {:>9.2} | {:>6.2}",
            a.label,
            r.final_accuracy(),
            r.best_accuracy(),
            r.attacked_updates,
            r.screened_updates,
            r.clipped_updates,
            d.precision,
            d.recall,
        );
    }
}

/// Percentage speedup of `a` over `b` to `target`, if both reached it.
pub(crate) fn speedup_pct(a: &RunResult, b: &RunResult, target: f64) -> Option<f64> {
    let ta = a.time_to_accuracy(target)?;
    let tb = b.time_to_accuracy(target)?;
    Some((tb - ta) / tb * 100.0)
}

/// `<name> vs FedBuff at X%: ±Y% wall-clock` for every target both reached.
fn print_speedups(name: &str, ours: &RunResult, fedbuff: &RunResult, targets: &[f64]) {
    for &t in targets {
        if let Some(s) = speedup_pct(ours, fedbuff, t) {
            println!("{name} vs FedBuff at {:.0}%: {s:+.1}% wall-clock", t * 100.0);
        }
    }
}

/// Fig. 5's headline: SEAFL(β) against FedBuff.
pub(crate) fn seafl_vs_fedbuff(row: &Row, results: &[ArmResult]) {
    let fedbuff = by_label(results, "fedbuff");
    print_speedups("SEAFL", by_label(results, "seafl(beta="), fedbuff, &row.targets);
}

/// Fig. 6's headline: SEAFL²'s notifications, partial updates and speedup
/// over FedBuff.
pub(crate) fn seafl2_vs_fedbuff(row: &Row, results: &[ArmResult]) {
    let seafl2 = by_label(results, "seafl2(");
    println!(
        "SEAFL^2 sent {} notifications, {} partial updates",
        seafl2.notifications, seafl2.partial_updates
    );
    print_speedups("SEAFL^2", seafl2, by_label(results, "fedbuff"), &row.targets);
}

/// The ablations: every arm that dropped updates or trained partially (the
/// staleness-policy row's drop and notify arms).
pub(crate) fn drops(_: &Row, results: &[ArmResult]) {
    for a in results.iter().filter(|a| a.result.dropped_updates + a.result.partial_updates > 0) {
        let (label, r) = (&a.label, &a.result);
        let (dropped, partial, notified) = (r.dropped_updates, r.partial_updates, r.notifications);
        println!("  {label}: dropped={dropped} partial={partial} notifications={notified}");
    }
}

/// Corollary 1: mean ‖∇f(w_t)‖² over the first and the last third of each
/// arm's probes, and their ratio.
pub(crate) fn grad_norm_decay(_: &Row, results: &[ArmResult]) {
    println!("{:<16} | mean ||grad||^2 (first 1/3) | (last 1/3) | decay ratio", "arm");
    println!("{}", "-".repeat(72));
    for a in results {
        let g = &a.result.grad_norms;
        if g.len() < 3 {
            println!("{:<16} | insufficient data", a.label);
            continue;
        }
        let third = g.len() / 3;
        let head: f64 = g[..third].iter().map(|&(_, v)| v).sum::<f64>() / third as f64;
        let tail: f64 = g[g.len() - third..].iter().map(|&(_, v)| v).sum::<f64>() / third as f64;
        println!("{:<16} | {head:>26.4e} | {tail:>10.4e} | {:>10.3}", a.label, tail / head);
    }
}

/// The codec sweep's bytes-to-target table. `--verify` asserts what CI
/// relies on: the identity arm is byte-neutral and top-k compresses.
pub(crate) fn bytes_to_target(row: &Row, results: &[ArmResult]) {
    println!();
    print!("{}", bytes_to_target_table(results, &row.targets));
    if !has_flag("verify") {
        return;
    }
    let identity = by_label(results, "identity");
    assert!(identity.codec_bytes_raw > 0, "identity arm moved no update bytes");
    let neutral = identity.codec_bytes_raw == identity.codec_bytes_encoded;
    assert!(neutral, "identity codec must be byte-neutral");
    let topk = by_label(results, "topk");
    let (raw, enc) = (topk.codec_bytes_raw, topk.codec_bytes_encoded);
    assert!(enc < raw, "top-k compression ratio must be < 1 ({enc} vs {raw})");
    println!("verify ok: identity neutral, topk ratio {:.3}", enc as f64 / raw as f64);
}

/// The chaos bench's fault table (what each resilience mechanism absorbed)
/// and fault tax: each faulty arm against the healthy arm before it.
pub(crate) fn fault_tax(row: &Row, results: &[ArmResult]) {
    print!("\n{:<20}", "arm");
    for name in ["crash", "lost", "retry", "t/out", "quar", "reject"] {
        print!(" {name:>7}");
    }
    for a in results {
        let r = &a.result;
        print!("\n{:<20}", a.label);
        for n in
            [r.crashes, r.upload_failures, r.retries, r.timeouts, r.quarantined, r.rejected_updates]
        {
            print!(" {n:>7}");
        }
    }
    println!();
    let target = row.targets[0];
    println!("\nfault tax (faulty vs healthy wall-clock to {:.0}%):", target * 100.0);
    for pair in results.chunks(2) {
        let [healthy_arm, faulty_arm] = pair else { continue };
        let name = healthy_arm.label.trim_end_matches(" (healthy)");
        let (healthy, faulty) = (&healthy_arm.result, &faulty_arm.result);
        match (healthy.time_to_accuracy(target), faulty.time_to_accuracy(target)) {
            (Some(h), Some(f)) => {
                println!("  {name:<10} {h:>9.0}s -> {f:>9.0}s ({:+.1}%)", (f - h) / h * 100.0)
            }
            (Some(h), None) => println!("  {name:<10} {h:>9.0}s -> target missed under faults"),
            (None, _) => println!("  {name:<10} target not reached even fault-free"),
        }
        let (h, f) = (healthy.termination, faulty.termination);
        println!("  {:<10} termination: healthy={h:?}, faulty={f:?}", "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seafl_core::obs::{HistogramSummary, PhaseSummary};
    use seafl_sim::TraceLog;

    fn dummy(series: Vec<(f64, f64)>) -> RunResult {
        RunResult {
            algorithm: "test",
            accuracy: series,
            grad_norms: vec![],
            rounds: 3,
            total_updates: 9,
            partial_updates: 0,
            dropped_updates: 0,
            notifications: 0,
            termination: seafl_sim::TerminationReason::MaxRounds,
            crashes: 0,
            upload_failures: 0,
            retries: 0,
            timeouts: 0,
            quarantined: 0,
            rejected_updates: 0,
            rejected_nonfinite: 0,
            rejected_norm: 0,
            screened_updates: 0,
            clipped_updates: 0,
            attacked_updates: 0,
            attackers: vec![],
            screened_clients: vec![],
            superseded_uploads: 0,
            codec_bytes_raw: 0,
            codec_bytes_encoded: 0,
            bytes_curve: vec![],
            model_digest: 0,
            sim_time_end: 100.0,
            obs: seafl_core::ObsSummary::default(),
            trace: TraceLog::new(),
        }
    }

    fn arm(label: &str, threads: usize, wall: f64, series: Vec<(f64, f64)>) -> ArmResult {
        ArmResult { label: label.into(), threads, wall_secs: wall, result: dummy(series) }
    }

    #[test]
    fn speedup_positive_when_a_faster() {
        let a = dummy(vec![(0.0, 0.0), (50.0, 0.9)]);
        let b = dummy(vec![(0.0, 0.0), (100.0, 0.9)]);
        let s = speedup_pct(&a, &b, 0.9).unwrap();
        assert!((s - 50.0).abs() < 1e-9);
        assert!(speedup_pct(&a, &b, 0.99).is_none());
    }

    #[test]
    fn csv_written_and_parsable() {
        let rs = vec![arm("x", 1, 1.0, vec![(0.0, 0.1), (10.0, 0.5)])];
        let p = write_csv("unit_test_tmp", &rs, false);
        let body = fs::read_to_string(&p).unwrap();
        assert!(body.starts_with("arm,sim_seconds,accuracy"));
        assert_eq!(body.lines().count(), 3);
        fs::remove_file(p).ok();
    }

    /// Golden layout test for the bytes-to-target table: two arms with
    /// codec data (identity and a 4:1 compressor) plus one pre-codec arm
    /// whose zero counters must render as em dashes, not divide-by-zero.
    #[test]
    fn bytes_table_matches_golden() {
        let series = vec![(0.0, 0.10), (10.0, 0.55), (20.0, 0.80)];
        let mut identity = dummy(series.clone());
        identity.codec_bytes_raw = 8 * 1024 * 1024;
        identity.codec_bytes_encoded = 8 * 1024 * 1024;
        identity.bytes_curve =
            vec![(0, 0), (4 * 1024 * 1024, 4 * 1024 * 1024), (8 * 1024 * 1024, 8 * 1024 * 1024)];
        let mut topk = dummy(series.clone());
        topk.codec_bytes_raw = 8 * 1024 * 1024;
        topk.codec_bytes_encoded = 2 * 1024 * 1024;
        topk.bytes_curve =
            vec![(0, 0), (4 * 1024 * 1024, 1024 * 1024), (8 * 1024 * 1024, 2 * 1024 * 1024)];
        let legacy = dummy(series);
        let results = vec![
            ArmResult { label: "identity".into(), threads: 1, wall_secs: 1.0, result: identity },
            ArmResult { label: "topk".into(), threads: 1, wall_secs: 1.0, result: topk },
            ArmResult { label: "legacy".into(), threads: 1, wall_secs: 1.0, result: legacy },
        ];
        let table = bytes_to_target_table(&results, &[0.5, 0.9]);
        // Golden-file comparison, normalized over space runs: the golden
        // pins cell contents, column order and dash handling; padding
        // widths are cosmetic and may be retuned without a data change.
        let golden_path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/bytes_table.golden");
        let golden = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("golden {} unreadable: {e}", golden_path.display()));
        let normalize = |s: &str| {
            s.lines()
                .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('-'))
                .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(normalize(&table), normalize(&golden), "\nrendered:\n{table}");
        // The compressing arm reaches the target on fewer encoded bytes.
        assert!(
            results[1].result.bytes_to_accuracy(0.5) < results[0].result.bytes_to_accuracy(0.5)
        );
    }

    #[test]
    fn run_json_records_wall_clock_and_speedup() {
        let mut rs = vec![
            arm("x", 1, 8.0, vec![(0.0, 0.1)]),
            arm("x", 4, 2.0, vec![(0.0, 0.1)]),
            arm("y", 4, 2.0, vec![(0.0, 0.1)]),
        ];
        let obs = &mut rs[0].result.obs;
        obs.phases.push(PhaseSummary { name: "train".into(), calls: 2, secs: 0.5 });
        obs.histograms.insert("staleness".into(), HistogramSummary::default());
        let p = write_run_json("unit_test_runs_tmp", &rs);
        let body = fs::read_to_string(&p).unwrap();
        // One record per line between the array brackets.
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!((lines[0], lines[lines.len() - 1]), ("[", "]"), "{body}");
        let recs: Vec<&str> =
            lines[1..lines.len() - 1].iter().map(|l| l.trim_end_matches(',')).collect();
        assert_eq!(recs.len(), 3);
        for rec in &recs {
            assert!(rec.starts_with("{\"label\":") && rec.ends_with('}'), "{rec}");
        }
        assert!(recs[0].contains(r#""threads":1,"#), "{}", recs[0]);
        assert!(recs[0].contains(r#""wall_secs":8,"#), "{}", recs[0]);
        // The threads=1 baseline itself records no speedup.
        assert!(recs[0].contains(r#""speedup_vs_threads1":null,"#), "{}", recs[0]);
        // Digests are 16-hex-digit strings (zero model/empty trace here).
        let zero = "0".repeat(16);
        assert!(recs[0].contains(&format!(r#""model_digest":"{zero}""#)), "{}", recs[0]);
        let trace = format!("{:016x}", TraceLog::new().digest());
        assert!(recs[0].contains(&format!(r#""trace_digest":"{trace}""#)), "{}", recs[0]);
        // Same-label threads=4 run: 8s -> 2s = 4x.
        assert!(recs[1].contains(r#""speedup_vs_threads1":4,"#), "{}", recs[1]);
        // No threads=1 baseline with label "y".
        assert!(recs[2].contains(r#""speedup_vs_threads1":null,"#), "{}", recs[2]);
        // Every key of the record, in order, and the nested objects.
        let keys = [
            "label",
            "algorithm",
            "threads",
            "kernel",
            "wall_secs",
            "sim_time_end",
            "rounds",
            "total_updates",
            "best_accuracy",
            "final_accuracy",
            "termination",
            "model_digest",
            "trace_digest",
            "speedup_vs_threads1",
            "codec_bytes_raw",
            "codec_bytes_encoded",
            "bytes_curve",
            "attacked_updates",
            "attackers",
            "screened_updates",
            "clipped_updates",
            "screened_clients",
            "detection",
            "obs",
        ];
        let mut at = 0;
        for k in keys {
            let found = recs[0][at..].find(&format!("\"{k}\":"));
            at += found.unwrap_or_else(|| panic!("missing or out-of-order {k}: {}", recs[0]));
        }
        for part in [
            r#""detection":{"true_positives":0,"false_positives":0,"false_negatives":0,"precision":1,"recall":1}"#,
            r#""obs":{"enabled":false,"registry_digest":"","wall_secs":0,"phases":[{"name":"train","calls":2,"secs":0.5}],"counters":{},"gauges":{},"histograms":{"staleness":{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p95":0}},"trace_events":{}}"#,
            r#""bytes_curve":[],"attacked_updates":0,"attackers":[]"#,
        ] {
            assert!(recs[0].contains(part), "missing {part}\nin {}", recs[0]);
        }
        assert!(recs[1].contains(r#""phases":[]"#), "{}", recs[1]);
        fs::remove_file(p).ok();
    }
}
