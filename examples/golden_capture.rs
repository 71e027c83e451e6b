//! Dump a compact fingerprint of a few deterministic runs (used to check
//! bit-identical behaviour across refactors; see tests/chaos.rs).
//!
//! ```sh
//! cargo run --release --example golden_capture
//! ```

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

fn main() {
    for alg in [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::fedavg(4),
    ] {
        let r = run_experiment(&cfg(77, alg));
        println!(
            "{}: rounds={} updates={} partial={} sim_end={:.6}",
            r.algorithm, r.rounds, r.total_updates, r.partial_updates, r.sim_time_end
        );
        let pts: Vec<String> =
            r.accuracy.iter().map(|(t, a)| format!("({t:.6},{a:.12})")).collect();
        println!("  acc=[{}]", pts.join(", "));
    }
}
