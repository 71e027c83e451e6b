//! The three paper architectures run end-to-end through the federated
//! engine (tiny widths and round counts — these are wiring tests, the
//! benchmarks exercise the real scales).

use seafl::core::{run_experiment, Algorithm, ExperimentConfig};
use seafl::data::SyntheticSpec;
use seafl::nn::ModelKind;
use seafl::sim::FleetConfig;

fn tiny(seed: u64, model: ModelKind, spec: SyntheticSpec) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, Algorithm::seafl(4, 2, Some(5)));
    c.model = model;
    c.spec = spec;
    c.num_clients = 6;
    c.fleet = FleetConfig::pareto_fleet(6);
    c.train_per_class = 6;
    c.test_per_class = 3;
    c.batch_size = 10;
    c.local_epochs = 2;
    c.max_rounds = 3;
    c.stop_at_accuracy = None;
    c
}

#[test]
fn lenet5_federates() {
    let r = run_experiment(&tiny(
        1,
        ModelKind::LeNet5 { num_classes: 10 },
        SyntheticSpec::emnist_like(),
    ));
    assert_eq!(r.rounds, 3);
    assert!(r.accuracy.iter().all(|&(_, a)| (0.0..=1.0).contains(&a)));
}

#[test]
fn resnet18_federates() {
    let r = run_experiment(&tiny(
        2,
        ModelKind::ResNet18 { num_classes: 10, width_base: 2 },
        SyntheticSpec::cifar10_like(),
    ));
    assert_eq!(r.rounds, 3);
    assert!(r.accuracy.iter().all(|&(_, a)| a.is_finite()));
}

#[test]
fn vgg16_federates() {
    let r = run_experiment(&tiny(
        3,
        ModelKind::Vgg16 { num_classes: 10, width_base: 2 },
        SyntheticSpec::cinic10_like(),
    ));
    assert_eq!(r.rounds, 3);
    assert!(r.accuracy.iter().all(|&(_, a)| a.is_finite()));
}

#[test]
fn lenet5_actually_learns_with_more_rounds() {
    let mut c = tiny(4, ModelKind::LeNet5 { num_classes: 10 }, SyntheticSpec::emnist_like());
    c.train_per_class = 12;
    c.max_rounds = 12;
    c.local_epochs = 3;
    let r = run_experiment(&c);
    let first = r.accuracy.first().unwrap().1;
    assert!(
        r.best_accuracy() > first + 0.25,
        "no learning signal: {first:.3} -> {:.3}",
        r.best_accuracy()
    );
}
