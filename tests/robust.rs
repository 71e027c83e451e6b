//! The Byzantine-robust aggregation layer, end to end.
//!
//! Four contracts, mirroring the layer's design guarantees:
//!
//! 1. **Inertness** — with the attack channel off and the `Mean` rule (the
//!    defaults), every policy produces digests bit-identical to a config
//!    that never mentions attacks at all, at one worker thread and at four.
//!    The robust layer costs nothing when unused.
//! 2. **Degenerate-parameter identity** — `TrimmedMean { beta: 0.0 }` is
//!    the mean, bit for bit, through a full training run.
//! 3. **Liveness under maximal screening** — a Krum rule that discards all
//!    but one update of every buffer still drives the run to completion.
//! 4. **Recovery** — a run killed mid-flight with attacks active (including
//!    the stateful stale-replay attacker and the stateful robust layer)
//!    resumes bit-identically from its newest snapshot.
//!
//! Plus the acceptance scenario: a pinned 30 % sign-flip + collusion fleet
//! where the plain mean fails the accuracy target but coordinate-median and
//! multi-Krum reach it, with Krum's screening decisions scored against the
//! ground-truth attacker set.

use seafl::core::robust::RobustAggregator;
use seafl::core::test_support::{apply_attack_overlay, tiny_cfg};
use seafl::core::{resume_experiment, run_experiment, Algorithm, ExperimentConfig, RunResult};
use seafl::nn::ModelKind;
use seafl::sim::{AttackConfig, AttackKind, AttackPlan, FleetConfig, TerminationReason};
use std::fs;
use std::path::PathBuf;

fn algorithms() -> [(&'static str, Algorithm); 6] {
    [
        ("seafl", Algorithm::seafl(6, 3, Some(10))),
        ("seafl2", Algorithm::seafl2(8, 3, 2)),
        ("fedbuff", Algorithm::fedbuff(6, 3)),
        ("fedasync", Algorithm::fedasync(6)),
        ("fedavg", Algorithm::fedavg(6)),
        ("fedstale", Algorithm::fedstale(6, 3)),
    ]
}

/// A short tiny-config run (digest comparisons need identity, not accuracy).
fn short_cfg(seed: u64, algorithm: Algorithm, threads: usize) -> ExperimentConfig {
    let mut c = tiny_cfg(seed, algorithm);
    c.stop_at_accuracy = None;
    c.max_rounds = 8;
    c.threads = threads;
    c
}

/// Contract 1: an armed-but-empty attack config (`kinds = []` is a no-op no
/// matter the probability) plus an explicit `Mean` rule and a non-default
/// distance metric must not perturb a single bit of any run. This is the
/// "attacks off ≡ seed" guarantee: the attack plan draws nothing, the mean
/// path is the literal pre-robust aggregation code, and the metric is inert
/// under a rule that never measures distances.
#[test]
fn idle_robust_layer_is_bit_identical_for_every_policy() {
    for (label, algorithm) in algorithms() {
        for threads in [1, 4] {
            let baseline = run_experiment(&short_cfg(11, algorithm, threads));
            let mut armed = short_cfg(11, algorithm, threads);
            armed.attack.attacker_prob = 0.7;
            armed.attack.kinds = vec![];
            armed.attack.collude_radius = 3.0;
            armed.robust.rule = RobustAggregator::Mean;
            armed.robust.metric = seafl::core::robust::DistanceMetric::Cosine;
            let r = run_experiment(&armed);
            assert!(r.attackers.is_empty(), "{label}/t{threads}: no-op plan marked attackers");
            assert_eq!(r.attacked_updates, 0, "{label}/t{threads}: no-op plan attacked");
            assert_eq!(
                r.model_digest, baseline.model_digest,
                "{label}/t{threads}: idle robust layer changed the model"
            );
            assert_eq!(
                r.trace.digest(),
                baseline.trace.digest(),
                "{label}/t{threads}: idle robust layer changed the event trace"
            );
        }
    }
}

/// Contract 2: β = 0 trims nothing, so `TrimmedMean` must reduce to the
/// weighted mean bitwise — through the full engine, not just the kernel.
#[test]
fn trimmed_mean_beta_zero_is_the_mean_end_to_end() {
    let mean = run_experiment(&short_cfg(5, Algorithm::seafl(6, 3, Some(10)), 1));
    let mut trimmed = short_cfg(5, Algorithm::seafl(6, 3, Some(10)), 1);
    trimmed.robust.rule = RobustAggregator::TrimmedMean { beta: 0.0 };
    let t = run_experiment(&trimmed);
    assert_eq!(t.model_digest, mean.model_digest, "β=0 trimmed mean diverged from the mean");
    assert_eq!(t.trace.digest(), mean.trace.digest(), "β=0 trimmed mean changed the trace");
}

/// Contract 3: `Krum { f: 0, multi: 1 }` over a buffer of 3 screens two of
/// every three updates — the heaviest screening the rule can express (it
/// always keeps at least one survivor, so an aggregation can never starve).
/// The run must still complete every round under a full adversarial fleet.
#[test]
fn maximal_krum_screening_keeps_the_engine_live() {
    let mut c = short_cfg(3, Algorithm::fedbuff(6, 3), 1);
    c.max_rounds = 12;
    apply_attack_overlay(&mut c);
    c.robust.rule = RobustAggregator::Krum { f: 0, multi: 1 };
    let r = run_experiment(&c);
    assert_eq!(r.termination, TerminationReason::MaxRounds, "run did not reach max_rounds");
    assert_eq!(r.rounds, 12, "screening stalled round progress");
    assert!(r.screened_updates > 0, "maximal Krum screened nothing");
    assert!(!r.screened_clients.is_empty(), "no screened-client ground truth recorded");
    let d = r.detection();
    assert!((0.0..=1.0).contains(&d.precision) && (0.0..=1.0).contains(&d.recall));
}

// ---------------------------------------------------------------------------
// Contract 4: kill-and-resume under active attack.
// ---------------------------------------------------------------------------

/// The crashing config: the checkpoint testbed (10 Pareto devices, thin MLP,
/// probability-1 server crash at round 3–4, every-round snapshots) with the
/// full attack overlay — all four `AttackKind`s — layered on top.
fn crash_cfg(seed: u64, algorithm: Algorithm, rule: RobustAggregator) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 10;
    c.stop_at_accuracy = None;
    apply_attack_overlay(&mut c);
    c.robust.rule = rule;
    c.faults.server_crash_prob = 1.0;
    c.faults.server_crash_window = (3, 4);
    c.checkpoint_every = Some(1);
    c.keep_last = 2;
    c
}

/// The counterfactual "the host never died" run of the same experiment.
fn reference_cfg(seed: u64, algorithm: Algorithm, rule: RobustAggregator) -> ExperimentConfig {
    let mut c = crash_cfg(seed, algorithm, rule);
    c.faults.server_crash_prob = 0.0;
    c.faults.server_crash_window = (0, 0);
    c.checkpoint_every = None;
    c
}

/// Find a seed whose attack plan actually exercises the stateful channels:
/// at least two attacker devices, at least one of them a stale-replayer
/// (whose last-upload memory rides the checkpoint). The search is over the
/// plan only — cheap and deterministic.
fn seed_with_replay_attacker(attack: &AttackConfig) -> u64 {
    (1..500)
        .find(|&seed| {
            let plan = AttackPlan::build(attack, 10, seed);
            let attackers = plan.attackers();
            attackers.len() >= 2
                && attackers.iter().any(|&k| matches!(plan.kind(k), Some(AttackKind::StaleReplay)))
        })
        .expect("no seed in 1..500 yields a stale-replay attacker")
}

fn tmp_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seafl-robust-test-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every observable output, compared bitwise — including the adversarial
/// and robust-layer counters the checkpoint extension carries.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.accuracy, b.accuracy, "{what}: accuracy curve diverged");
    assert_eq!(a.rounds, b.rounds, "{what}: round count diverged");
    assert_eq!(a.total_updates, b.total_updates, "{what}: update count diverged");
    assert_eq!(a.rejected_updates, b.rejected_updates, "{what}: rejections diverged");
    assert_eq!(a.rejected_nonfinite, b.rejected_nonfinite, "{what}: non-finite count diverged");
    assert_eq!(a.rejected_norm, b.rejected_norm, "{what}: norm-reject count diverged");
    assert_eq!(a.screened_updates, b.screened_updates, "{what}: screened count diverged");
    assert_eq!(a.clipped_updates, b.clipped_updates, "{what}: clipped count diverged");
    assert_eq!(a.attacked_updates, b.attacked_updates, "{what}: attacked count diverged");
    assert_eq!(a.attackers, b.attackers, "{what}: attacker set diverged");
    assert_eq!(a.screened_clients, b.screened_clients, "{what}: screened set diverged");
    assert_eq!(a.termination, b.termination, "{what}: termination reason diverged");
    assert_eq!(a.model_digest, b.model_digest, "{what}: final model diverged");
    assert_eq!(a.sim_time_end, b.sim_time_end, "{what}: end time diverged");
    assert_eq!(a.trace.entries(), b.trace.entries(), "{what}: event trace diverged");
}

/// An attacked run killed by the seeded server crash and resumed from disk
/// must equal the uninterrupted reference bit for bit — for a screening
/// rule (Krum), a combining rule (coordinate median) and a clipping rule
/// (norm-clip), so every piece of robust/replay state in the snapshot is
/// covered.
#[test]
fn kill_and_resume_under_active_attack_is_bit_identical() {
    let arms: [(&str, Algorithm, RobustAggregator); 3] = [
        ("median", Algorithm::seafl(5, 3, Some(5)), RobustAggregator::CoordMedian),
        ("krum", Algorithm::fedbuff(5, 3), RobustAggregator::Krum { f: 0, multi: 2 }),
        ("clip", Algorithm::fedasync(5), RobustAggregator::NormClip { tau: 0.5 }),
    ];
    let seed = seed_with_replay_attacker(&crash_cfg(0, Algorithm::fedbuff(5, 3), arms[0].2).attack);
    for (name, algorithm, rule) in arms {
        let dir = tmp_dir(name);
        let mut crash = crash_cfg(seed, algorithm, rule);
        crash.checkpoint_dir = Some(dir.clone());
        let reference = run_experiment(&reference_cfg(seed, algorithm, rule));
        assert!(
            reference.attacked_updates > 0,
            "{name}: premise failed — no attacked uploads in the reference run"
        );
        let interrupted = run_experiment(&crash);
        assert_eq!(
            interrupted.termination,
            TerminationReason::ServerCrash,
            "{name}: seeded server crash did not fire"
        );
        let resumed = resume_experiment(&crash, &dir).expect("resume failed");
        assert_identical(&resumed, &reference, name);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Acceptance scenario: mean fails, median and Krum survive.
// ---------------------------------------------------------------------------

/// The pinned poisoning fleet: ~30 % of 10 devices attack via sign-flips
/// and same-value collusion (radius 2 — the colluders replace their entire
/// parameter vector with shared junk, devastating any mean).
fn poison_attack() -> AttackConfig {
    AttackConfig {
        attacker_prob: 0.3,
        kinds: vec![AttackKind::SignFlip, AttackKind::Collude],
        collude_radius: 2.0,
    }
}

/// Find a seed whose sampled attacker set is exactly 3 of 10 (the scenario's
/// pinned 30 %) with exactly one colluder — enough to wreck the mean, few
/// enough that colluders can never out-cluster honest devices under Krum.
fn poison_seed() -> u64 {
    let attack = poison_attack();
    (1..500)
        .find(|&seed| {
            let plan = AttackPlan::build(&attack, 10, seed);
            let attackers = plan.attackers();
            let colluders = attackers
                .iter()
                .filter(|&&k| matches!(plan.kind(k), Some(AttackKind::Collude)))
                .count();
            attackers.len() == 3 && colluders == 1
        })
        .expect("no seed in 1..500 yields 3 attackers with one colluder")
}

/// The accuracy testbed (matches tests/algorithms_e2e.rs calibration: the
/// honest baseline comfortably clears 0.5 in ~40 rounds).
fn poison_cfg(algorithm: Algorithm, rule: RobustAggregator) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(poison_seed(), algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 30;
    c.test_per_class = 10;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 24, num_classes: 10 };
    c.max_rounds = 50;
    c.max_sim_time = 1_000_000.0;
    c.stop_at_accuracy = None;
    c.attack = poison_attack();
    c.robust.rule = rule;
    c
}

const TARGET: f64 = 0.40;

/// The headline robustness claim. Under the pinned 30 % sign-flip +
/// collusion fleet:
///
/// * the undefended mean never reaches the accuracy target,
/// * coordinate-median does,
/// * multi-Krum does **and** its screening recalls most of the ground-truth
///   attacker set (precision is diluted by design: Krum drops `n − multi`
///   updates every round, honest or not, so recall is the meaningful axis).
#[test]
fn robust_rules_defeat_the_pinned_poisoning_fleet() {
    // Premise: the same testbed learns fine when nobody attacks.
    let mut honest = poison_cfg(Algorithm::fedbuff(5, 3), RobustAggregator::Mean);
    honest.attack = AttackConfig::none();
    let control = run_experiment(&honest);
    assert!(
        control.best_accuracy() > TARGET,
        "premise failed: honest run only reached {:.3}",
        control.best_accuracy()
    );

    let mean = run_experiment(&poison_cfg(Algorithm::fedbuff(5, 3), RobustAggregator::Mean));
    assert_eq!(mean.attackers.len(), 3, "pinned attacker set drifted");
    assert!(mean.attacked_updates > 0, "attackers never uploaded");
    assert!(
        mean.best_accuracy() < TARGET,
        "undefended mean unexpectedly survived the attack: {:.3}",
        mean.best_accuracy()
    );

    let median =
        run_experiment(&poison_cfg(Algorithm::fedbuff(5, 3), RobustAggregator::CoordMedian));
    assert!(
        median.best_accuracy() > TARGET,
        "coordinate median failed the target: {:.3}",
        median.best_accuracy()
    );

    // Krum needs n ≥ f + 3 to screen, so this arm buffers 8 of 10 devices:
    // with f = 3 it tolerates every attacker in the same buffer.
    let krum = run_experiment(&poison_cfg(
        Algorithm::fedbuff(8, 8),
        RobustAggregator::Krum { f: 3, multi: 4 },
    ));
    assert!(
        krum.best_accuracy() > TARGET,
        "multi-Krum failed the target: {:.3}",
        krum.best_accuracy()
    );
    assert!(krum.screened_updates > 0, "Krum screened nothing under attack");
    let d = krum.detection();
    assert!(
        d.recall > 0.5,
        "Krum recalled too few attackers: recall {:.2} (tp {} fn {})",
        d.recall,
        d.true_positives,
        d.false_negatives
    );
}
