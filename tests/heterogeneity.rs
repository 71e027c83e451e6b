//! Data heterogeneity end-to-end through the engine: the partition
//! strategies, and FedProx under extreme label skew.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig, PartitionStrategy};
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;

fn cfg(seed: u64, partition: PartitionStrategy) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, Algorithm::seafl(5, 3, Some(5)));
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 30;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 20;
    c.stop_at_accuracy = None;
    c.partition = partition;
    c
}

#[test]
fn every_partition_strategy_runs_and_learns() {
    for partition in [PartitionStrategy::Dirichlet { alpha: 0.3 }, PartitionStrategy::Iid] {
        let r = run_experiment(&cfg(1, partition));
        assert_eq!(r.rounds, 20, "{partition:?}");
        assert!(r.best_accuracy() > 0.4, "{partition:?} failed to learn: {:.3}", r.best_accuracy());
    }
}

#[test]
fn fedprox_constrains_drift_under_extreme_skew() {
    let mut plain = cfg(4, PartitionStrategy::Dirichlet { alpha: 0.05 });
    plain.local_epochs = 8; // exaggerate local drift
    let mut prox = plain.clone();
    prox.prox_mu = 0.5;

    let r_plain = run_experiment(&plain);
    let r_prox = run_experiment(&prox);
    // Both run the same schedule; the proximal run must be a valid run
    // (same rounds) and not collapse.
    assert_eq!(r_plain.rounds, r_prox.rounds);
    assert!(r_prox.best_accuracy() > 0.3, "prox run collapsed");
}
