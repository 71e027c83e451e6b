//! The paper's motivating scenario: a fleet with a heavy straggler tail.
//! Compares SEAFL, FedBuff and synchronous FedAvg on the *same* data,
//! models and device speeds, differing only in the server protocol.
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use seafl::core::{run_experiment, Algorithm, ExperimentConfig};
use seafl::data::sampling::ParetoSpeed;
use seafl::sim::FleetConfig;

fn main() {
    // An extra-heavy straggler tail: the slowest devices are up to 40×
    // slower than the fastest tier (the regime where synchronous FL wastes
    // the fleet, §I of the paper).
    let fleet = FleetConfig {
        pareto_speed: Some(ParetoSpeed { shape: 1.2, scale: 1.0, cap: 40.0 }),
        ..FleetConfig::pareto_fleet(40)
    };

    let arms = [
        ("SEAFL (beta=10)", Algorithm::seafl(10, 5, Some(10))),
        ("FedBuff", Algorithm::fedbuff(10, 5)),
        ("FedAvg (sync)", Algorithm::fedavg(10)),
    ];

    println!("{:<18} {:>12} {:>12} {:>10}", "protocol", "t->70% (s)", "t->80% (s)", "rounds");
    println!("{}", "-".repeat(56));
    for (name, algorithm) in arms {
        let mut config = ExperimentConfig::quick(7, algorithm);
        config.fleet = fleet.clone();
        config.max_rounds = 200;
        config.stop_at_accuracy = Some(0.82);
        let r = run_experiment(&config);
        let fmt = |t: Option<f64>| t.map_or("—".into(), |v| format!("{v:.0}"));
        println!(
            "{name:<18} {:>12} {:>12} {:>10}",
            fmt(r.time_to_accuracy(0.70)),
            fmt(r.time_to_accuracy(0.80)),
            r.rounds
        );
    }
    println!("\nSEAFL reaches the targets fastest: it neither waits for the");
    println!("stragglers (FedAvg) nor lets their stale updates drag the");
    println!("average (FedBuff's uniform 1/K weighting).");
}
