//! Reproducibility: identical seeds give bitwise-identical runs; different
//! seeds differ; algorithms sharing a seed see identical data and fleets.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig};
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;

fn cfg(seed: u64, algorithm: Algorithm) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 12;
    c.stop_at_accuracy = None;
    c
}

#[test]
fn identical_seed_identical_run_every_algorithm() {
    for alg in [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::fedavg(4),
    ] {
        let a = run_experiment(&cfg(77, alg));
        let b = run_experiment(&cfg(77, alg));
        assert_eq!(a.accuracy, b.accuracy, "{} accuracy series diverged", a.algorithm);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.total_updates, b.total_updates);
        assert_eq!(a.partial_updates, b.partial_updates);
        assert_eq!(a.sim_time_end, b.sim_time_end);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_experiment(&cfg(1, Algorithm::seafl(5, 3, Some(5))));
    let b = run_experiment(&cfg(2, Algorithm::seafl(5, 3, Some(5))));
    assert_ne!(a.accuracy, b.accuracy);
}

#[test]
fn schedule_identical_across_weighting_rules() {
    // SEAFL(β=∞) and FedBuff share trigger policy and selection streams, so
    // under the same seed their *schedules* (rounds, update counts, final
    // sim time) must coincide even though the learned weights differ.
    let a = run_experiment(&cfg(5, Algorithm::seafl(5, 3, None)));
    let b = run_experiment(&cfg(5, Algorithm::fedbuff(5, 3)));
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.total_updates, b.total_updates);
    assert_eq!(a.sim_time_end, b.sim_time_end);
    // Evaluation instants coincide; accuracies may differ.
    let ta: Vec<f64> = a.accuracy.iter().map(|&(t, _)| t).collect();
    let tb: Vec<f64> = b.accuracy.iter().map(|&(t, _)| t).collect();
    assert_eq!(ta, tb);
}

#[test]
fn initial_evaluation_identical_across_algorithms() {
    // Same seed ⇒ same data + same initial model ⇒ same t=0 accuracy.
    let a = run_experiment(&cfg(9, Algorithm::fedbuff(5, 3)));
    let b = run_experiment(&cfg(9, Algorithm::fedasync(5)));
    let c = run_experiment(&cfg(9, Algorithm::fedavg(4)));
    assert_eq!(a.accuracy[0], b.accuracy[0]);
    assert_eq!(a.accuracy[0], c.accuracy[0]);
}
