//! One run of one workload: repetitions until the measuring time is used
//! up, the correctness checks, and the metrics of the requested kind
//! (end-to-end with tracing off, per-layer with tracing on).

use crate::json::{obj, Json};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{config, run_rep, run_wire_reference, Rep, Scale, Workload};
use crate::{probes, Metric};
use seafl_core::{ExperimentConfig, PartitionStrategy};
use seafl_data::{dirichlet_partition, iid_partition};
use seafl_sim::rng::{stream_rng, streams};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fewest repetitions a median is taken over.
const MIN_REPS: usize = 3;
/// Most repetitions of one run, whatever `--seconds` says.
const MAX_REPS: usize = 64;
/// A repetition still running after this long is counted as failed and the
/// run ends. Repetitions take seconds; the contract allows a run 180 s.
const WATCHDOG: Duration = Duration::from_secs(100);

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

pub struct RunOutcome {
    pub correct: bool,
    /// Client updates the repetitions were to process.
    pub attempted: u64,
    /// Updates of repetitions that panicked, hung or failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line per failed check.
    pub failures: Vec<String>,
    /// Every repetition's raw values, for the results file.
    pub detail: Json,
}

/// Run `f` on its own thread; `Err` if it panics or outlives [`WATCHDOG`].
/// A timed-out thread cannot be stopped: the caller ends the run, and
/// `main` leaves through `process::exit`.
fn with_watchdog<T: Send + 'static>(
    f: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("repetition".into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| format!("cannot spawn the repetition thread: {e}"))?;
    match rx.recv_timeout(WATCHDOG) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            Err(format!("watchdog: repetition still running after {WATCHDOG:?}"))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err("repetition panicked".into())
        }
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the set-up spends in `seafl-data`, timed by making the workload's
/// dataset and partition once more outside `Environment::build`:
/// `(synth_ms, partition_ms)`.
fn data_probe(cfg: &ExperimentConfig) -> (f64, f64) {
    let data_seed = rand::RngCore::next_u64(&mut stream_rng(cfg.seed, streams::DATA));
    let t = Instant::now();
    let task = cfg.spec.generate(cfg.train_per_class, cfg.test_per_class, data_seed);
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rng = stream_rng(cfg.seed, streams::PARTITION);
    let t = Instant::now();
    let parts = match cfg.partition {
        PartitionStrategy::Dirichlet { alpha } => {
            dirichlet_partition(task.train.labels(), cfg.num_clients, alpha, &mut rng)
        }
        _ => iid_partition(task.train.len(), cfg.num_clients, &mut rng),
    };
    let shards: Vec<_> = parts.iter().map(|idx| task.train.subset(idx)).collect();
    let partition_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(shards);
    (synth_ms, partition_ms)
}

fn rep_json(rep: &Rep) -> Json {
    obj([
        ("traced", Json::from(rep.traced)),
        ("setup_s", Json::Num(rep.setup_s)),
        ("wall_s", Json::Num(rep.wall_s)),
        ("updates", Json::from(rep.updates)),
        ("rounds", Json::from(rep.rounds)),
        ("final_accuracy", Json::Num(rep.final_accuracy)),
        ("upload_bytes", Json::from(rep.upload_bytes)),
        ("sim_time_to_target_s", rep.sim_time_to_target_s.map_or(Json::Null, Json::Num)),
        ("upload_bytes_to_target", rep.upload_bytes_to_target.map_or(Json::Null, Json::from)),
        ("model_digest", Json::from(format!("{:016x}", rep.model_digest))),
        ("trace_digest", Json::from(format!("{:016x}", rep.trace_digest))),
    ])
}

fn phase(rep: &Rep, name: &str) -> (f64, u64) {
    rep.obs
        .as_ref()
        .and_then(|o| o.phases.iter().find(|p| p.name == name))
        .map_or((0.0, 0), |p| (p.secs, p.calls))
}

/// Median over the traced repetitions of `f(rep)`.
fn traced_median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let values: Vec<f64> = reps.iter().filter(|r| r.traced).map(f).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

fn per_call_ms(secs: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        secs * 1e3 / calls as f64
    }
}

pub fn run_workload(args: &RunArgs) -> RunOutcome {
    let RunArgs { workload, seed, seconds, trace, scale, ref out_dir } = *args;
    let cfg = config(workload, seed, scale);
    let mut failures: Vec<String> = Vec::new();
    let mut failed_reps = 0u64;
    let recorder = trace.then(Recorder::new);

    let data_ms = trace.then(|| data_probe(&cfg));
    // The in-process run the wire run must match, and the base of its
    // wire-overhead metric.
    let wire_ref = (workload == Workload::WireTcp).then(|| run_wire_reference(&cfg));

    // Untraced runs repeat untraced; traced runs alternate untraced and
    // traced repetitions, so the tracing overhead is measured within one
    // process and both kinds are checked against each other.
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    let min_reps = match (trace, scale) {
        // One of each kind.
        (true, _) => 2,
        (false, Scale::Check) => 1,
        (false, Scale::Full) => MIN_REPS,
    };
    while reps.len() < MAX_REPS && (reps.len() < min_reps || measured < seconds) {
        let rec = recorder.clone().filter(|_| reps.len() % 2 == 1);
        let (cfg, dir) = (cfg.clone(), out_dir.clone());
        match with_watchdog(move || run_rep(workload, &cfg, &dir, rec.as_ref())) {
            Ok(rep) => {
                measured += rep.wall_s;
                reps.push(rep);
            }
            Err(e) => {
                failures.push(format!("repetition {}: {e}", reps.len() + 1));
                failed_reps += 1;
                break;
            }
        }
    }

    // Checks. Every repetition (traced or not) ends on the same digests.
    if let Some(first) = reps.first() {
        for (i, rep) in reps.iter().enumerate().skip(1) {
            if (rep.model_digest, rep.trace_digest) != (first.model_digest, first.trace_digest) {
                failures.push(format!(
                    "repetition {} ended on model {:016x} / trace {:016x}, repetition 1 on \
                     {:016x} / {:016x}",
                    i + 1,
                    rep.model_digest,
                    rep.trace_digest,
                    first.model_digest,
                    first.trace_digest
                ));
            }
        }
        if let Some((_, model, trace_digest)) = wire_ref {
            if (first.model_digest, first.trace_digest) != (model, trace_digest) {
                failures.push(format!(
                    "wire run ended on model {:016x} / trace {:016x}, the in-process run of the \
                     same config on {model:016x} / {trace_digest:016x}",
                    first.model_digest, first.trace_digest
                ));
            }
        }
        if scale == Scale::Full && first.final_accuracy < workload.accuracy_floor() {
            failures.push(format!(
                "final test accuracy {:.3} is below the workload's floor {}: the run did not learn",
                first.final_accuracy,
                workload.accuracy_floor()
            ));
        }
    }

    let nominal_updates = reps.first().map_or(1, |r| r.updates as u64).max(1);
    let attempted =
        reps.iter().map(|r| r.updates as u64).sum::<u64>() + failed_reps * nominal_updates;
    // A failed check condemns every repetition it compared.
    let failed = if failures.is_empty() { 0 } else { attempted };

    let mut metrics = Vec::new();
    if reps.is_empty() {
        // Nothing was measured; the contract still wants every name.
    } else if !trace {
        // Noise on a shared host only ever adds time, and comes in bursts
        // longer than a repetition: the fastest repetition repeats from run
        // to run far better than the median one (README, "Why the fastest").
        let fastest = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
        let first = &reps[0];
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        metrics.push(Metric::new("setup_s", median(&setups), "s"));
        metrics.push(Metric::new("wall_s", fastest, "s"));
        metrics.push(Metric::new("updates_per_s", first.updates as f64 / fastest, "1/s"));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(Metric::new("upload_mb", first.upload_bytes as f64 / 1e6, "MB"));
        metrics.push(Metric::new("final_accuracy", first.final_accuracy, "ratio"));
    } else {
        match probes::run_all(seed, out_dir) {
            Ok(m) => metrics.extend(m),
            Err(e) => failures.push(format!("probe: {e}")),
        }
        let (synth_ms, partition_ms) = data_ms.unwrap_or((0.0, 0.0));
        metrics.push(Metric::new("data.synth_ms", synth_ms, "ms"));
        metrics.push(Metric::new("data.partition_ms", partition_ms, "ms"));
        in_situ_metrics(&mut metrics, &reps, recorder.as_ref(), wire_ref.map(|r| r.0));
        // The paper's two metrics. Exact for a seed, but they differ by tens
        // of percent between seeds, so they carry no regression bound.
        let first = &reps[0];
        metrics.push(Metric::new(
            "paper.sim_time_to_target_s",
            first.sim_time_to_target_s.unwrap_or(0.0),
            "s",
        ));
        metrics.push(Metric::new(
            "paper.upload_mb_to_target",
            first.upload_bytes_to_target.unwrap_or(0) as f64 / 1e6,
            "MB",
        ));
        if let Some(rec) = &recorder {
            if let Some(run) = reps.iter().rev().find_map(|r| r.span_run) {
                let path = out_dir.join(format!("{}.trace.json", workload.name()));
                let totals = rec.totals(run).into_iter().map(|(name, calls, total_us, self_us)| {
                    obj([
                        ("name", Json::from(name)),
                        ("calls", Json::from(calls)),
                        ("total_us", Json::Num(total_us)),
                        ("self_us", Json::Num(self_us)),
                    ])
                });
                let doc = obj([
                    ("workload", Json::from(workload.name())),
                    ("seed", Json::from(seed)),
                    ("totals", Json::Arr(totals.collect())),
                    ("spans", rec.to_json(run)),
                ]);
                if let Err(e) = std::fs::write(&path, doc.compact()) {
                    failures.push(format!("cannot write {}: {e}", path.display()));
                }
            }
        }
    }

    let detail = obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("trace", Json::from(trace)),
        ("target_accuracy", Json::Num(workload.target_accuracy())),
        ("repetitions", Json::Arr(reps.iter().map(rep_json).collect())),
        ("failures", Json::from(failures.clone())),
    ]);
    RunOutcome {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        failures,
        detail,
    }
}

/// The per-layer numbers read off the traced repetitions: the engine's
/// phase totals (`ObsMode::Summary`), the policy and trainer spans, the
/// wire counters, the checkpoint files.
fn in_situ_metrics(
    out: &mut Vec<Metric>,
    reps: &[Rep],
    recorder: Option<&Recorder>,
    wire_reference_wall_s: Option<f64>,
) {
    let phase_s = |name: &'static str| traced_median(reps, |r| phase(r, name).0);
    let per_call = |name: &'static str| {
        traced_median(reps, |r| {
            let (secs, calls) = phase(r, name);
            per_call_ms(secs, calls)
        })
    };
    out.push(Metric::new("core.engine.train_s", phase_s("train"), "s"));
    out.push(Metric::new("core.engine.eval_s", phase_s("eval"), "s"));
    out.push(Metric::new("core.engine.dispatch_ms_per_call", per_call("dispatch"), "ms"));
    out.push(Metric::new("core.engine.sanitize_ms_per_round", per_call("sanitize"), "ms"));
    out.push(Metric::new("core.engine.aggregate_ms_per_round", per_call("aggregate"), "ms"));
    out.push(Metric::new(
        "core.engine.events_per_s",
        traced_median(reps, |r| r.trace_events as f64 / r.wall_s),
        "1/s",
    ));
    // `weighting` and `mix` lie inside `aggregate`; the other phases do not
    // overlap. What is left of the loop after them is shown, not hidden.
    out.push(Metric::new(
        "core.engine.self_s",
        traced_median(reps, |r| {
            let top = [
                "dispatch",
                "train",
                "admission",
                "sanitize",
                "robust",
                "aggregate",
                "eval",
                "checkpoint",
                "codec",
            ];
            let run_loop_s = r.wall_s - r.resume_s.unwrap_or(0.0);
            run_loop_s - top.iter().map(|p| phase(r, p).0).sum::<f64>()
        }),
        "s",
    ));

    // Policy spans of the last traced repetition. The engine runs the
    // aggregation as weights → average → mix; the policy's share of one is
    // its `weights_for_buffer` plus its `mix_into_global` (or its own
    // `aggregate`, for FedAsync).
    let last_run = reps.iter().rev().find_map(|r| r.span_run);
    let (mut on_update_us, mut aggregate_ms, mut cohort_ms) = (Vec::new(), Vec::new(), Vec::new());
    if let (Some(rec), Some(run)) = (recorder, last_run) {
        on_update_us = rec.durations_us("policy.on_update_received", run);
        let weights = rec.durations_us("policy.weights_for_buffer", run);
        let mix = rec.durations_us("policy.mix_into_global", run);
        aggregate_ms = weights.iter().zip(&mix).map(|(w, m)| (w + m) / 1e3).collect();
        aggregate_ms.extend(rec.durations_us("policy.aggregate", run).iter().map(|a| a / 1e3));
        cohort_ms = rec.durations_us("net.train_cohort", run).iter().map(|c| c / 1e3).collect();
    }
    out.push(Metric::new("core.policy.on_update_us_p50", percentile(&on_update_us, 50.0), "us"));
    out.push(Metric::new("core.policy.aggregate_ms_p50", percentile(&aggregate_ms, 50.0), "ms"));
    out.push(Metric::new("core.policy.aggregate_ms_p95", percentile(&aggregate_ms, 95.0), "ms"));

    out.push(Metric::new("core.codec.phase_ms_per_cohort", per_call("codec"), "ms"));
    out.push(Metric::new(
        "core.robust.phase_ms_per_round",
        {
            // `robust` is entered twice a round (screen, combine).
            traced_median(reps, |r| {
                let (secs, _) = phase(r, "robust");
                per_call_ms(secs, r.rounds)
            })
        },
        "ms",
    ));
    out.push(Metric::new("core.checkpoint.save_ms_per_call", per_call("checkpoint"), "ms"));
    out.push(Metric::new(
        "core.checkpoint.snapshot_mb",
        traced_median(reps, |r| r.snapshot_bytes.unwrap_or(0) as f64 / 1e6),
        "MB",
    ));

    // Tracing overhead: the fastest traced against the fastest untraced
    // repetition of this process.
    let fastest = |traced: bool| {
        reps.iter().filter(|r| r.traced == traced).map(|r| r.wall_s).fold(f64::INFINITY, f64::min)
    };
    let (bare, traced) = (fastest(false), fastest(true));
    let overhead =
        if bare.is_finite() && traced.is_finite() { (traced - bare) / bare * 100.0 } else { 0.0 };
    out.push(Metric::new("core.obs.trace_overhead_pct", overhead, "%"));

    // The wire, from the trainer spans and the server's own counters.
    out.push(Metric::new("net.server.cohort_rtt_ms_p50", percentile(&cohort_ms, 50.0), "ms"));
    out.push(Metric::new("net.server.cohort_rtt_ms_p95", percentile(&cohort_ms, 95.0), "ms"));
    let net = |f: fn(&Rep, &seafl_net::NetStats) -> f64| {
        traced_median(reps, |r| r.net.as_ref().map_or(0.0, |n| f(r, n)))
    };
    out.push(Metric::new(
        "net.server.wire_overhead_ms_per_update",
        match wire_reference_wall_s {
            Some(base) if bare.is_finite() => (bare - base) * 1e3 / reps[0].updates.max(1) as f64,
            _ => 0.0,
        },
        "ms",
    ));
    out.push(Metric::new(
        "net.server.wire_mb",
        net(|_, n| (n.bytes_sent + n.bytes_received) as f64 / 1e6),
        "MB",
    ));
    out.push(Metric::new("net.server.retransmits", net(|_, n| n.retransmits as f64), "count"));
    // Useful bytes: the update snapshots the engine counted, over the wall.
    out.push(Metric::new(
        "net.server.goodput_mb_s",
        net(|r, _| r.upload_bytes as f64 / 1e6 / r.wall_s),
        "MB/s",
    ));
}
