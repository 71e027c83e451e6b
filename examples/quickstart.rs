//! Quickstart: run SEAFL on a synthetic EMNIST-like federation and print
//! the accuracy-vs-time curve plus the time-to-target headline metric.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seafl::core::{build_policy, metrics, run_experiment, Algorithm, ExperimentConfig};

fn main() {
    // 40 simulated devices with heavy-tailed (Pareto) speeds, an MLP on a
    // synthetic 28×28 task, SEAFL server with buffer K = 5 and staleness
    // limit β = 10.
    let config = ExperimentConfig::quick(/*seed=*/ 1, Algorithm::seafl(10, 5, Some(10)));

    let name = build_policy(&config).name();
    println!("running {name} on {} clients ...", config.num_clients);
    let result = run_experiment(&config);

    println!("\naccuracy vs simulated wall-clock:");
    for (t, acc) in metrics::downsample(&result.accuracy, 12) {
        let bar = "#".repeat((acc * 40.0) as usize);
        println!("{t:>8.0}s  {:>5.1}%  {bar}", acc * 100.0);
    }

    println!("\nrounds: {}, client updates: {}", result.rounds, result.total_updates);
    match result.time_to_accuracy(0.80) {
        Some(t) => println!("time to 80% accuracy: {t:.0} simulated seconds"),
        None => println!("80% accuracy not reached (best: {:.1}%)", result.best_accuracy() * 100.0),
    }

    // Observability rides along by default (summary level, see
    // OBSERVABILITY.md): the metric registry comes home in `result.obs`.
    // `ObsConfig::full(path)` would additionally stream per-event JSONL
    // for the seafl-bench `report` tool.
    if let Some(stale) = result.obs.histograms.get("staleness_rounds") {
        println!(
            "aggregated-update staleness: p50 {:.1}, p95 {:.1} rounds (n={})",
            stale.p50, stale.p95, stale.count
        );
    }
    let phases: Vec<String> = result
        .obs
        .phases
        .iter()
        .filter(|p| p.secs > 0.0)
        .map(|p| format!("{} {:.2}s", p.name, p.secs))
        .collect();
    println!("host time by phase: {}", phases.join(", "));
}
