//! Client-selection policies end-to-end: speed-biased selection changes
//! participation and wall-clock behaviour; the default stays uniform.

use seafl::core::{run_experiment, Algorithm, ExperimentConfig, SelectionPolicy};
use seafl::nn::ModelKind;
use seafl::sim::{FleetConfig, TraceEvent};

fn cfg(seed: u64, selection: SelectionPolicy) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, Algorithm::fedbuff(5, 3));
    c.num_clients = 12;
    c.fleet = FleetConfig::pareto_fleet(12);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 25;
    c.stop_at_accuracy = None;
    c.selection = selection;
    c
}

/// Mean speed factor over all client-start events.
fn mean_started_speed(r: &seafl::core::RunResult, fleet: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (_, ev) in r.trace.entries() {
        if let TraceEvent::ClientStart { id, .. } = ev {
            total += fleet[id.index()];
            n += 1;
        }
    }
    total / n as f64
}

#[test]
fn fast_bias_starts_faster_devices() {
    let base = cfg(1, SelectionPolicy::Uniform);
    let fleet_speeds: Vec<f64> =
        base.fleet.build(base.seed).iter().map(|d| d.speed_factor).collect();

    let uniform = run_experiment(&base);
    let fast = run_experiment(&cfg(1, SelectionPolicy::SpeedBiased { exponent: 3.0 }));
    let slow = run_experiment(&cfg(1, SelectionPolicy::SpeedBiased { exponent: -3.0 }));

    let mu = mean_started_speed(&uniform, &fleet_speeds);
    let mf = mean_started_speed(&fast, &fleet_speeds);
    let ms = mean_started_speed(&slow, &fleet_speeds);
    // Remember: speed_factor is a *slowness* multiplier (1 = fastest tier),
    // so favouring fast devices lowers the mean factor.
    assert!(mf < mu, "fast bias did not lower mean factor: {mf} vs {mu}");
    assert!(ms > mu, "slow boost did not raise mean factor: {ms} vs {mu}");
}

#[test]
fn fast_bias_finishes_rounds_sooner() {
    let uniform = run_experiment(&cfg(2, SelectionPolicy::Uniform));
    let fast = run_experiment(&cfg(2, SelectionPolicy::SpeedBiased { exponent: 3.0 }));
    assert_eq!(uniform.rounds, fast.rounds);
    assert!(
        fast.sim_time_end < uniform.sim_time_end,
        "fast-biased selection should compress the schedule: {} vs {}",
        fast.sim_time_end,
        uniform.sim_time_end
    );
}

#[test]
fn biased_selection_is_deterministic() {
    let a = run_experiment(&cfg(3, SelectionPolicy::SpeedBiased { exponent: 2.0 }));
    let b = run_experiment(&cfg(3, SelectionPolicy::SpeedBiased { exponent: 2.0 }));
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.sim_time_end, b.sim_time_end);
}

#[test]
fn fedavg_supports_biased_selection() {
    let mut c = cfg(4, SelectionPolicy::SpeedBiased { exponent: 3.0 });
    c.algorithm = Algorithm::fedavg(5);
    c.max_rounds = 10;
    let mut u = c.clone();
    u.selection = SelectionPolicy::Uniform;
    let biased = run_experiment(&c);
    let uniform = run_experiment(&u);
    // Rounds are bounded by the slowest selected device; biasing toward
    // fast devices must shorten the synchronous schedule.
    assert!(biased.sim_time_end < uniform.sim_time_end);
}
