//! Shared test-support helpers: the tiny experiment configs used by the
//! engine test suites and the digest-equivalence fixtures.
//!
//! This module is compiled into the library (integration tests and the
//! fixture-generator example cannot see `#[cfg(test)]` items) but hidden
//! from the documented API surface.

use crate::config::{Algorithm, ExperimentConfig};
use crate::robust::RobustAggregator;
use seafl_nn::ModelKind;
use seafl_sim::{AttackKind, CorruptionKind, FleetConfig};

/// Monotone counter for *intended* numeric changes. Bump it whenever a
/// change deliberately alters bit-level results (a new accumulation order,
/// a different reduction tree) so the refactor guard re-pins its digest
/// fixtures instead of failing on stale ones; `tests/fixtures/digests.txt`
/// records the epoch it was pinned under in a `# numeric-epoch: N` header.
///
/// Epoch 2: packed tiled-GEMM matmul + im2col-free convolution (KC-slab
/// accumulation order replaced the naive k-loop).
/// Epoch 3: FedAvg on the event-driven path (uploads land at their own
/// arrival times, the buffer is in arrival order, every fault applies).
pub const NUMERIC_EPOCH: u32 = 3;

/// The comment block `tests/fixtures/digests.txt` opens with.
/// `examples/digest_fixtures.rs` prints it ahead of the `# numeric-epoch`
/// line, so a re-pin by redirection keeps it.
pub const FIXTURE_HEADER: &str = "\
# Refactor-guard digest fixtures: one `key model_digest trace_digest` line
# per case in seafl_core::test_support::fixture_cases (key = <algorithm>/<variant>).
# Pinned from a release run of the generator below (a debug build gives the
# same digests); digests depend on the floating-point environment.
# tests/refactor_guard.rs checks every case against its line and appends a
# line only for a case the file does not list yet. CI's refactor-guard job
# regenerates the file at the PR's merge-base before running the guard on
# the head — the actual pre/post-refactor equivalence check.
# Re-pin manually: cargo run --release --example digest_fixtures > tests/fixtures/digests.txt
# (it prints this header too). Entries pinned under a different numeric-epoch
# than the code's seafl_core::test_support::NUMERIC_EPOCH are discarded and
# re-pinned (intended numeric changes bump the epoch instead of failing the guard).
";

/// The small-but-real experiment config the engine tests run: 12 Pareto
/// devices, a thin MLP, 30 rounds. Heavy enough to exercise staleness and
/// device turnover, light enough for debug-mode `cargo test`.
pub fn tiny_cfg(seed: u64, algorithm: Algorithm) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(seed, algorithm);
    cfg.num_clients = 12;
    cfg.fleet = FleetConfig::pareto_fleet(12);
    cfg.train_per_class = 24;
    cfg.test_per_class = 8;
    cfg.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 24, num_classes: 10 };
    cfg.max_rounds = 30;
    cfg.max_sim_time = 100_000.0;
    cfg
}

/// One refactor-guard fixture case: a labelled config whose seeded
/// `model_digest`/`trace_digest` are pinned in `tests/fixtures/digests.txt`.
pub struct FixtureCase {
    /// Algorithm label, matches `RunResult::algorithm`.
    pub label: &'static str,
    /// Overlay applied on top of the tiny config: `"clean"` (none),
    /// `"faults"` (fault injection + resilience knobs), `"attack"`
    /// (adversarial clients + the coordinate median) or `"attack-clip"`
    /// (adversarial clients + norm clipping).
    pub variant: &'static str,
    /// The fully specified experiment config the fixture pins.
    pub cfg: ExperimentConfig,
}

impl FixtureCase {
    /// The fixture-file key for this case (`<label>/<variant>`).
    pub fn key(&self) -> String {
        format!("{}/{}", self.label, self.variant)
    }
}

/// Every fault channel the engines consult, plus the resilience knobs that
/// react to them — so the guard pins the faulty code paths too.
fn apply_fault_overlay(cfg: &mut ExperimentConfig) {
    cfg.faults.crash_prob = 0.2;
    cfg.faults.crash_window = (0.0, 40.0);
    cfg.faults.upload_drop_prob = 0.15;
    cfg.faults.straggler_prob = 0.3;
    cfg.faults.straggler_window = (0.0, 30.0);
    cfg.faults.straggler_duration = 20.0;
    cfg.faults.straggler_factor = 3.0;
    cfg.faults.corrupt_prob = 0.1;
    cfg.faults.corruption = CorruptionKind::NanBurst { count: 4 };
    cfg.resilience.session_timeout = Some(25.0);
    cfg.resilience.quarantine_after = 2;
    cfg.resilience.max_update_norm_ratio = Some(50.0);
}

/// Adversarial-fleet overlay: ~30 % of devices attack through every
/// [`AttackKind`], defended by the coordinate-median robust rule. Shared by
/// the fixture set and the robustness test suite.
pub fn apply_attack_overlay(cfg: &mut ExperimentConfig) {
    cfg.attack.attacker_prob = 0.3;
    cfg.attack.kinds = vec![
        AttackKind::SignFlip,
        AttackKind::ScaledBoost { lambda: 8.0 },
        AttackKind::Collude,
        AttackKind::StaleReplay,
    ];
    cfg.attack.collude_radius = 2.0;
    cfg.robust.rule = RobustAggregator::CoordMedian;
}

/// The digest-equivalence fixture set: every seed algorithm, with and
/// without faults, on one fixed seed — plus an adversarial variant for
/// SEAFL, FedBuff and FedAsync (the robust layer's home turf). Shared by
/// the generator (`examples/digest_fixtures.rs`) and the guard
/// (`tests/refactor_guard.rs`) so the two can never drift apart.
pub fn fixture_cases() -> Vec<FixtureCase> {
    let algorithms: [(&'static str, Algorithm); 7] = [
        ("seafl", Algorithm::seafl(6, 3, Some(10))),
        ("seafl2", Algorithm::seafl2(8, 3, 2)),
        ("seafl-drop", Algorithm::seafl_drop(8, 3, 1)),
        ("fedbuff", Algorithm::fedbuff(6, 3)),
        ("fedasync", Algorithm::fedasync(6)),
        ("fedavg", Algorithm::fedavg(6)),
        ("fedstale", Algorithm::fedstale(6, 3)),
    ];
    let mut cases = Vec::new();
    for (label, algorithm) in algorithms {
        for variant in ["clean", "faults"] {
            let mut cfg = tiny_cfg(42, algorithm);
            cfg.stop_at_accuracy = None;
            if variant == "faults" {
                apply_fault_overlay(&mut cfg);
            }
            cases.push(FixtureCase { label, variant, cfg });
        }
        if matches!(label, "seafl" | "fedbuff" | "fedasync") {
            let mut cfg = tiny_cfg(42, algorithm);
            cfg.stop_at_accuracy = None;
            apply_attack_overlay(&mut cfg);
            // The median is unweighted, so SEAFL's Eq. 4–6 weights never
            // reach it: SEAFL's case clips norms instead, or it would pin
            // FedBuff's digests again.
            let mut variant = "attack";
            if label == "seafl" {
                cfg.robust.rule = RobustAggregator::NormClip { tau: 1.0 };
                variant = "attack-clip";
            }
            cases.push(FixtureCase { label, variant, cfg });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_file_starts_with_the_header() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/digests.txt");
        let text = std::fs::read_to_string(path).expect("fixture file");
        assert!(text.starts_with(FIXTURE_HEADER), "{path} does not start with FIXTURE_HEADER");
        let epoch = format!("{FIXTURE_HEADER}# numeric-epoch: {NUMERIC_EPOCH}\n");
        assert!(text.starts_with(&epoch), "{path}: no numeric-epoch line after the header");
    }
}
