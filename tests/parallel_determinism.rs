//! The TrainerPool bitwise-determinism guarantee, end to end: the `threads`
//! knob may change wall-clock time but must never change a single bit of a
//! run's results. A `threads = 8` run is compared field-for-field (including
//! the full event trace) against the exact `threads = 1` sequential legacy
//! code path, for every algorithm, with faults, and with the gradient probe.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig, RunResult};
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;

fn cfg(seed: u64, algorithm: Algorithm, threads: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 10;
    c.stop_at_accuracy = None;
    c.threads = threads;
    c
}

/// Every observable output of a run, compared bitwise. `Vec<(f64, f64)>`
/// equality is exact (`f64::eq`), so any floating-point divergence anywhere
/// in training or evaluation fails here.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.accuracy, b.accuracy, "{what}: accuracy curve diverged");
    assert_eq!(a.grad_norms, b.grad_norms, "{what}: grad-norm curve diverged");
    assert_eq!(a.rounds, b.rounds, "{what}: round count diverged");
    assert_eq!(a.total_updates, b.total_updates, "{what}: update count diverged");
    assert_eq!(a.partial_updates, b.partial_updates, "{what}: partial updates diverged");
    assert_eq!(a.dropped_updates, b.dropped_updates, "{what}: dropped updates diverged");
    assert_eq!(a.notifications, b.notifications, "{what}: notifications diverged");
    assert_eq!(a.crashes, b.crashes, "{what}: crash count diverged");
    assert_eq!(a.upload_failures, b.upload_failures, "{what}: upload failures diverged");
    assert_eq!(a.retries, b.retries, "{what}: retry count diverged");
    assert_eq!(a.timeouts, b.timeouts, "{what}: timeout count diverged");
    assert_eq!(a.rejected_updates, b.rejected_updates, "{what}: rejections diverged");
    assert_eq!(a.termination, b.termination, "{what}: termination reason diverged");
    assert_eq!(a.sim_time_end, b.sim_time_end, "{what}: end time diverged");
    assert_eq!(a.trace.entries(), b.trace.entries(), "{what}: event trace diverged");
}

#[test]
fn threads_never_change_results_any_algorithm() {
    for alg in [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::fedavg(4),
    ] {
        let seq = run_experiment(&cfg(77, alg, 1));
        let par = run_experiment(&cfg(77, alg, 8));
        assert_identical(&seq, &par, seq.algorithm);
    }
}

#[test]
fn auto_sized_pool_matches_sequential() {
    // threads = 0 sizes the pool to the rayon default — whatever that is on
    // the host (or under RAYON_NUM_THREADS in CI), results must not move.
    let seq = run_experiment(&cfg(31, Algorithm::seafl(5, 3, Some(5)), 1));
    let auto = run_experiment(&cfg(31, Algorithm::seafl(5, 3, Some(5)), 0));
    assert_identical(&seq, &auto, "seafl threads=0");
}

#[test]
fn grad_norm_probe_deterministic_across_threads() {
    let mk = |threads| {
        let mut c = cfg(19, Algorithm::seafl(5, 3, Some(5)), threads);
        c.grad_norm_probe = true;
        c
    };
    let seq = run_experiment(&mk(1));
    let par = run_experiment(&mk(8));
    assert!(!seq.grad_norms.is_empty(), "probe produced no samples");
    assert_identical(&seq, &par, "seafl grad-norm probe");
}

#[test]
fn faulty_runs_deterministic_across_threads() {
    // Fault injection exercises the retry/timeout/sanitizer paths, whose
    // RNG draws and reschedules must also be independent of the executor.
    let mk = |threads| {
        let mut c = cfg(42, Algorithm::seafl2(5, 3, 3), threads);
        c.faults.crash_prob = 0.2;
        c.faults.crash_window = (0.0, c.max_sim_time * 0.5);
        c.faults.upload_drop_prob = 0.15;
        c.resilience.session_timeout = Some(c.max_sim_time * 0.1);
        c
    };
    let seq = run_experiment(&mk(1));
    let par = run_experiment(&mk(8));
    assert_identical(&seq, &par, "seafl2 under faults");
}

#[test]
fn thread_counts_agree_pairwise() {
    // Not just 1-vs-8: every width lands on the same result, so the
    // guarantee is "thread-count independent", not "8 happens to match 1".
    let runs: Vec<RunResult> = [1, 2, 3, 8]
        .iter()
        .map(|&t| run_experiment(&cfg(7, Algorithm::fedbuff(5, 3), t)))
        .collect();
    for pair in runs.windows(2) {
        assert_identical(&pair[0], &pair[1], "fedbuff width sweep");
    }
}
