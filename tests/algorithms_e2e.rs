//! End-to-end integration: every algorithm runs, learns, and terminates on
//! a small federation.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig};
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;

fn small_cfg(seed: u64, algorithm: Algorithm) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(seed, algorithm);
    cfg.num_clients = 10;
    cfg.fleet = FleetConfig::pareto_fleet(10);
    cfg.train_per_class = 30;
    cfg.test_per_class = 10;
    cfg.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 24, num_classes: 10 };
    cfg.max_rounds = 40;
    cfg.stop_at_accuracy = None;
    cfg
}

#[test]
fn seafl_learns() {
    let r = run_experiment(&small_cfg(1, Algorithm::seafl(5, 3, Some(10))));
    assert_eq!(r.algorithm, "seafl");
    assert!(r.best_accuracy() > 0.5, "best {:.3}", r.best_accuracy());
    assert_eq!(r.rounds, 40);
}

#[test]
fn seafl2_learns_and_notifies_under_tight_beta() {
    let r = run_experiment(&small_cfg(2, Algorithm::seafl2(8, 3, 1)));
    assert_eq!(r.algorithm, "seafl2");
    assert!(r.best_accuracy() > 0.5, "best {:.3}", r.best_accuracy());
    assert!(r.notifications > 0);
    // Each partial update requires a prior notification.
    assert!(r.partial_updates <= r.notifications);
}

#[test]
fn fedbuff_learns() {
    let r = run_experiment(&small_cfg(3, Algorithm::fedbuff(5, 3)));
    assert_eq!(r.algorithm, "fedbuff");
    assert!(r.best_accuracy() > 0.5, "best {:.3}", r.best_accuracy());
}

#[test]
fn fedasync_runs_one_aggregation_per_update() {
    let r = run_experiment(&small_cfg(4, Algorithm::fedasync(5)));
    assert_eq!(r.algorithm, "fedasync");
    assert_eq!(r.rounds as usize, r.total_updates);
}

#[test]
fn fedavg_learns_synchronously() {
    let mut cfg = small_cfg(5, Algorithm::fedavg(5));
    cfg.max_rounds = 25;
    let r = run_experiment(&cfg);
    assert_eq!(r.algorithm, "fedavg");
    assert!(r.best_accuracy() > 0.5, "best {:.3}", r.best_accuracy());
    // Synchronous: exactly clients_per_round updates per round.
    assert_eq!(r.total_updates, 25 * 5);
}

#[test]
fn accuracy_series_time_ordered_for_all_algorithms() {
    for (seed, alg) in [
        (6, Algorithm::seafl(5, 3, Some(5))),
        (7, Algorithm::fedbuff(5, 3)),
        (8, Algorithm::fedasync(5)),
        (9, Algorithm::fedavg(4)),
    ] {
        let mut cfg = small_cfg(seed, alg);
        cfg.max_rounds = 15;
        let r = run_experiment(&cfg);
        assert!(
            r.accuracy.windows(2).all(|w| w[0].0 <= w[1].0),
            "{}: series not time-ordered",
            r.algorithm
        );
        assert!(r.accuracy.len() >= 2, "{}: too few evals", r.algorithm);
        assert!(r.sim_time_end > 0.0);
    }
}

#[test]
fn max_sim_time_is_respected() {
    let mut cfg = small_cfg(10, Algorithm::fedbuff(5, 3));
    cfg.max_sim_time = 30.0;
    cfg.max_rounds = 100_000;
    let r = run_experiment(&cfg);
    // The engine stops at the first event past the limit; allow one
    // in-flight session of slack.
    assert!(r.accuracy.iter().all(|&(t, _)| t <= 30.0), "evaluated past the time limit");
    assert!(r.rounds < 100_000);
}
