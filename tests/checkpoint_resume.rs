//! The checkpoint/resume guarantee, end to end: a run killed mid-flight by
//! the seeded server-crash fault and resumed from its newest durable
//! snapshot must finish with the event trace and final model of an
//! uninterrupted run of the same experiment — bit for bit, for every
//! algorithm, with device faults active, at any thread count. Plus the
//! failure half of the contract: torn or bit-flipped snapshots are rejected
//! at load (falling back to the previous valid one), and state from a
//! different experiment is never restored.

use seafl::core::test_support::{apply_attack_overlay, fixture_cases};
use seafl::core::{
    resume_experiment, run_experiment, Algorithm, CheckpointError, ExperimentConfig, RunResult,
};
use seafl::nn::ModelKind;
use seafl::sim::{FleetConfig, TerminationReason};
use std::fs;
use std::path::PathBuf;

/// The crashing config: the parallel-determinism testbed plus device faults,
/// a probability-1 server crash at round 3–4, and every-round snapshots.
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
    c.faults.crash_prob = 0.15;
    c.faults.crash_window = (0.0, c.max_sim_time * 0.5);
    c.faults.upload_drop_prob = 0.1;
    c.resilience.session_timeout = Some(c.max_sim_time * 0.1);
    c.faults.server_crash_prob = 1.0;
    c.faults.server_crash_window = (3, 4);
    c.checkpoint_every = Some(1);
    c.keep_last = 2;
    c
}

/// The counterfactual "the host never died": identical in every draw (the
/// server-crash channel samples after all device schedules), no snapshots.
fn reference_cfg(seed: u64, algorithm: Algorithm, threads: usize) -> ExperimentConfig {
    let mut c = cfg(seed, algorithm, threads);
    c.faults.server_crash_prob = 0.0;
    c.faults.server_crash_window = (0, 0);
    c.checkpoint_every = None;
    c.keep_last = 2;
    c
}

/// A fresh per-case scratch directory under the OS temp dir.
fn tmp_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seafl-ckpt-test-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every observable output of a run, compared bitwise (same contract as
/// tests/parallel_determinism.rs, plus the model digest).
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
    assert_eq!(a.quarantined, b.quarantined, "{what}: quarantine count diverged");
    assert_eq!(a.rejected_updates, b.rejected_updates, "{what}: rejections diverged");
    assert_eq!(a.rejected_nonfinite, b.rejected_nonfinite, "{what}: non-finite split diverged");
    assert_eq!(a.rejected_norm, b.rejected_norm, "{what}: norm split diverged");
    assert_eq!(a.screened_updates, b.screened_updates, "{what}: screened diverged");
    assert_eq!(a.clipped_updates, b.clipped_updates, "{what}: clipped diverged");
    assert_eq!(a.attacked_updates, b.attacked_updates, "{what}: attacked diverged");
    assert_eq!(a.superseded_uploads, b.superseded_uploads, "{what}: superseded diverged");
    assert_eq!(a.termination, b.termination, "{what}: termination reason diverged");
    assert_eq!(a.model_digest, b.model_digest, "{what}: final model diverged");
    assert_eq!(a.sim_time_end, b.sim_time_end, "{what}: end time diverged");
    assert_eq!(a.trace.entries(), b.trace.entries(), "{what}: event trace diverged");
}

fn all_algorithms() -> [Algorithm; 6] {
    [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::FedAvg { clients_per_round: 4 },
        // Stateful policy: its running staleness means ride the per-policy
        // checkpoint section, so this case proves that section round-trips.
        Algorithm::fedstale(5, 3),
    ]
}

/// The headline guarantee: crash + resume ≡ uninterrupted, for every
/// algorithm, faults on, sequential and parallel executors.
#[test]
fn crash_and_resume_is_bit_identical_for_every_algorithm() {
    for (i, alg) in all_algorithms().into_iter().enumerate() {
        for threads in [1usize, 4] {
            let dir = tmp_dir(&format!("main-{i}-t{threads}"));
            let mut crash = cfg(77, alg, threads);
            crash.checkpoint_dir = Some(dir.clone());

            let crashed = run_experiment(&crash);
            let reference = run_experiment(&reference_cfg(77, alg, threads));
            let what = format!("{} threads={threads}", reference.algorithm);
            assert_eq!(
                crashed.termination,
                TerminationReason::ServerCrash,
                "{what}: run did not die at the seeded crash round"
            );
            assert!(crashed.rounds < reference.rounds, "{what}: crash did not interrupt");

            let resumed = resume_experiment(&crash, &dir)
                .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
            assert_identical(&resumed, &reference, &what);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Snapshots embed no executor state: a run checkpointed under `threads = 1`
/// resumes under `threads = 4` (and vice versa) with identical results.
#[test]
fn resume_across_thread_counts() {
    let alg = Algorithm::seafl(5, 3, Some(5));
    let reference = run_experiment(&reference_cfg(31, alg, 1));
    for (from, to) in [(1usize, 4usize), (4, 1)] {
        let dir = tmp_dir(&format!("xthread-{from}-{to}"));
        let mut crash = cfg(31, alg, from);
        crash.checkpoint_dir = Some(dir.clone());
        let crashed = run_experiment(&crash);
        assert_eq!(crashed.termination, TerminationReason::ServerCrash);

        let resume_cfg = cfg(31, alg, to);
        let resumed = resume_experiment(&resume_cfg, &dir)
            .unwrap_or_else(|e| panic!("cross-thread {from}->{to} resume failed: {e}"));
        assert_identical(&resumed, &reference, &format!("threads {from}->{to}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The run counters and the accuracy curve are read off the trace when a run
/// ends, so a resumed run reports them from the *restored* trace: for every
/// digest-fixture case under the attack overlay (every fault channel, every
/// attack kind, a robust rule), crash + resume reports what the uninterrupted
/// run reports.
#[test]
fn resumed_run_reports_the_uninterrupted_counters_for_every_fixture_case() {
    let mut attacked = 0;
    for case in fixture_cases() {
        let what = case.key();
        let dir = tmp_dir(&format!("ledger-{}-{}", case.label, case.variant));
        let mut reference = case.cfg;
        apply_attack_overlay(&mut reference);
        reference.max_rounds = 8;
        let mut crash = reference.clone();
        crash.faults.server_crash_prob = 1.0;
        crash.faults.server_crash_window = (3, 4);
        crash.checkpoint_every = Some(1);
        crash.keep_last = 2;
        crash.checkpoint_dir = Some(dir.clone());

        let crashed = run_experiment(&crash);
        assert_eq!(crashed.termination, TerminationReason::ServerCrash, "{what}: did not crash");
        let reference = run_experiment(&reference);
        attacked += reference.attacked_updates;
        let resumed =
            resume_experiment(&crash, &dir).unwrap_or_else(|e| panic!("{what}: resume: {e}"));
        assert_identical(&resumed, &reference, &what);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(attacked > 0, "the overlay attacked nothing in any case");
}

/// Return the retained snapshot files, oldest first.
fn snapshots(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seafl"))
        .collect();
    files.sort();
    files
}

/// A bit-flipped newest snapshot fails its checksum and the loader falls
/// back to the previous valid one — the resumed run is still bit-identical.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let alg = Algorithm::seafl(5, 3, Some(5));
    let dir = tmp_dir("bitflip");
    let mut crash = cfg(19, alg, 1);
    crash.checkpoint_dir = Some(dir.clone());
    let crashed = run_experiment(&crash);
    assert_eq!(crashed.termination, TerminationReason::ServerCrash);

    let files = snapshots(&dir);
    assert!(files.len() >= 2, "keep_last=2 should retain two snapshots, got {}", files.len());
    let newest = files.last().unwrap();
    let mut bytes = fs::read(newest).expect("read newest snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(newest, &bytes).expect("write corrupted snapshot");

    let resumed = resume_experiment(&crash, &dir).expect("fallback resume failed");
    let reference = run_experiment(&reference_cfg(19, alg, 1));
    assert_identical(&resumed, &reference, "fallback after bit flip");
    let _ = fs::remove_dir_all(&dir);
}

/// When every snapshot is torn, resume errors cleanly — no panic, no silent
/// partial restore.
#[test]
fn all_snapshots_torn_is_a_clean_error() {
    let alg = Algorithm::fedbuff(5, 3);
    let dir = tmp_dir("torn");
    let mut crash = cfg(23, alg, 1);
    crash.checkpoint_dir = Some(dir.clone());
    let crashed = run_experiment(&crash);
    assert_eq!(crashed.termination, TerminationReason::ServerCrash);

    for f in snapshots(&dir) {
        let bytes = fs::read(&f).expect("read snapshot");
        fs::write(&f, &bytes[..bytes.len() / 2]).expect("truncate snapshot");
    }
    let err = resume_experiment(&crash, &dir).expect_err("torn snapshots must not restore");
    assert!(
        matches!(err, CheckpointError::NoValidCheckpoint { .. }),
        "expected NoValidCheckpoint, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Snapshots from a different experiment (different config hash) are
/// rejected, not silently restored into the wrong run.
#[test]
fn config_mismatch_is_rejected() {
    let alg = Algorithm::seafl(5, 3, Some(5));
    let dir = tmp_dir("cfgdrift");
    let mut crash = cfg(55, alg, 1);
    crash.checkpoint_dir = Some(dir.clone());
    let crashed = run_experiment(&crash);
    assert_eq!(crashed.termination, TerminationReason::ServerCrash);

    let mut drifted = cfg(56, alg, 1); // different seed ⇒ different experiment
    drifted.checkpoint_dir = Some(dir.clone());
    let err = resume_experiment(&drifted, &dir).expect_err("drifted config must not restore");
    assert!(
        matches!(err, CheckpointError::NoValidCheckpoint { .. }),
        "expected NoValidCheckpoint, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Resuming an empty / missing directory is a clean error too.
#[test]
fn empty_directory_is_a_clean_error() {
    let dir = tmp_dir("empty");
    fs::create_dir_all(&dir).expect("create empty dir");
    let c = cfg(1, Algorithm::seafl(5, 3, Some(5)), 1);
    let err = resume_experiment(&c, &dir).expect_err("nothing to resume from");
    assert!(
        matches!(err, CheckpointError::NoValidCheckpoint { .. }),
        "expected NoValidCheckpoint, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
