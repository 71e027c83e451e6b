//! Observability must be a pure measurement layer: turning it on (summary
//! or full-JSONL), or changing the thread count underneath it, must never
//! change a single bit of a run's results — and the JSONL stream itself
//! must be byte-identical across same-seed reruns and thread counts.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig, ObsConfig, ObsMode};
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;
use std::path::PathBuf;

fn cfg(seed: u64, algorithm: Algorithm, threads: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 8;
    c.stop_at_accuracy = None;
    c.threads = threads;
    c
}

fn tmp_jsonl(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("seafl_obs_test_{}_{tag}.jsonl", std::process::id()))
}

#[test]
fn obs_mode_never_changes_results() {
    for alg in [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::fedavg(4),
        Algorithm::fedstale(5, 3),
    ] {
        let mut off = cfg(31, alg, 1);
        off.obs.mode = ObsMode::Off;
        let baseline = run_experiment(&off);

        let summary = run_experiment(&cfg(31, alg, 1)); // default: Summary

        let path = tmp_jsonl(baseline.algorithm);
        let mut full = cfg(31, alg, 1);
        full.obs = ObsConfig::full(&path);
        let streamed = run_experiment(&full);
        std::fs::remove_file(&path).ok();

        for (mode, run) in [("summary", &summary), ("full", &streamed)] {
            assert_eq!(
                baseline.model_digest, run.model_digest,
                "{}: obs {mode} changed the final model",
                baseline.algorithm
            );
            assert_eq!(
                baseline.trace.digest(),
                run.trace.digest(),
                "{}: obs {mode} changed the event trace",
                baseline.algorithm
            );
            assert_eq!(baseline.accuracy, run.accuracy, "{}: obs {mode}", baseline.algorithm);
        }
        // Off really is off; the other modes measured the same run.
        assert!(!baseline.obs.enabled);
        assert!(summary.obs.enabled);
        assert_eq!(summary.obs.registry_digest, streamed.obs.registry_digest);
        assert_eq!(summary.obs.counters["aggregations"], summary.rounds);
    }
}

#[test]
fn obs_registry_and_jsonl_identical_across_threads() {
    for alg in [Algorithm::seafl(5, 3, Some(5)), Algorithm::fedbuff(5, 3)] {
        let mut bytes = Vec::new();
        let mut digests = Vec::new();
        for threads in [1usize, 4] {
            let path = tmp_jsonl(&format!("threads{threads}"));
            let mut c = cfg(47, alg, threads);
            c.obs = ObsConfig::full(&path);
            let run = run_experiment(&c);
            digests.push((run.model_digest, run.obs.registry_digest.clone()));
            bytes.push(std::fs::read(&path).expect("stream written"));
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(digests[0], digests[1], "thread count leaked into obs digests");
        assert_eq!(bytes[0], bytes[1], "JSONL stream differs between threads=1 and threads=4");
        assert!(!bytes[0].is_empty());
    }
}

/// A full stream accounts for the whole run: one `update` line per
/// admitted-or-dropped upload, one `round` line per aggregation, one `eval`
/// line per accuracy point, and a summary carrying the result's own
/// registry digest.
#[test]
fn jsonl_stream_line_counts_match_result() {
    let path = tmp_jsonl("counts");
    let mut c = seafl::core::test_support::tiny_cfg(7, Algorithm::fedbuff(4, 2));
    c.max_rounds = 3;
    c.obs = ObsConfig::full(&path);
    let result = run_experiment(&c);
    let text = std::fs::read_to_string(&path).expect("stream written");
    std::fs::remove_file(&path).ok();
    let kind = |k: &str| {
        let prefix = format!("{{\"kind\":\"{k}\"");
        text.lines().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!(kind("meta"), 1);
    assert_eq!(kind("update"), result.total_updates);
    assert_eq!(kind("round") as u64, result.rounds);
    assert_eq!(kind("eval"), result.accuracy.len());
    assert_eq!(kind("summary"), 1);
    let summary = text.lines().last().unwrap();
    let digest = format!(r#""registry_digest":"{}"}}"#, result.obs.registry_digest);
    assert!(summary.ends_with(&digest), "{summary}");
}

#[test]
fn jsonl_byte_identical_across_reruns() {
    let run = |tag: &str| {
        let path = tmp_jsonl(tag);
        let mut c = cfg(59, Algorithm::seafl2(5, 3, 2), 2);
        c.obs = ObsConfig::full(&path);
        run_experiment(&c);
        let body = std::fs::read(&path).expect("stream written");
        std::fs::remove_file(&path).ok();
        body
    };
    let a = run("rerun_a");
    let b = run("rerun_b");
    assert_eq!(a, b, "same-seed reruns produced different JSONL bytes");
    // Sanity: the stream opens with the meta record and ends with summary.
    let text = String::from_utf8(a).expect("stream is UTF-8");
    let first = text.lines().next().unwrap();
    let last = text.lines().last().unwrap();
    assert!(first.starts_with("{\"kind\":\"meta\""), "{first}");
    assert!(last.starts_with("{\"kind\":\"summary\""), "{last}");
}
