//! # seafl-bench
//!
//! The figure-regeneration harness for the SEAFL reproduction: one binary,
//! `cargo run --release -p seafl-bench -- <figure> [flags]` (DESIGN.md §4
//! has the index). Each figure part is a row of the arm table in
//! [`profiles`], run by [`report::run_row`]; [`chaos`] and [`fleet`] hold
//! the binary's two modes that are not table rows.
//!
//! Scale notes: the profiles are scaled-down versions of the paper's
//! workloads — fewer devices, fewer samples per device, width-scaled
//! ResNet/VGG — so every figure regenerates in minutes on one core while
//! preserving the paper's comparisons (who wins, roughly by how much,
//! where the crossovers are). `--scale smoke` is a seconds-long sanity run.

pub mod chaos;
pub mod fleet;
pub mod profiles;
pub mod report;

use seafl_core::{run_experiment, ExperimentConfig, RunResult};
use std::time::Instant;

/// One experiment arm: a label plus its config.
#[derive(Clone)]
pub(crate) struct Arm {
    pub(crate) label: String,
    pub(crate) config: ExperimentConfig,
}

/// One finished arm: the simulation result plus host-side measurements.
pub(crate) struct ArmResult {
    pub(crate) label: String,
    /// The `threads` knob the arm ran with (0 = rayon default).
    pub(crate) threads: usize,
    /// Host wall-clock seconds the run took.
    pub(crate) wall_secs: f64,
    pub(crate) result: RunResult,
}

/// Run a set of arms sequentially, printing progress to stderr.
pub(crate) fn run_arms(arms: Vec<Arm>) -> Vec<ArmResult> {
    let total = arms.len();
    arms.into_iter()
        .enumerate()
        .map(|(i, arm)| {
            let t0 = Instant::now();
            eprint!("[{}/{}] running {} ... ", i + 1, total, arm.label);
            let result = run_experiment(&arm.config);
            let wall_secs = t0.elapsed().as_secs_f64();
            eprintln!(
                "done in {wall_secs:.1}s (rounds={}, best acc={:.3})",
                result.rounds,
                result.best_accuracy()
            );
            ArmResult { label: arm.label, threads: arm.config.threads, wall_secs, result }
        })
        .collect()
}

/// Experiment scale selector parsed from `--scale`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity run.
    Smoke,
    /// The default profile used for EXPERIMENTS.md (minutes).
    Std,
}

/// Minimal CLI parsing shared by every subcommand: returns the value
/// following `--<name>` if present.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == &format!("--{name}")).and_then(|i| args.get(i + 1)).cloned()
}

/// True when the bare flag `--<name>` was passed.
pub(crate) fn has_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Parse `--<name>` as a comma-separated list, e.g. `--threads 1,4`.
/// Empty when the flag is absent.
pub fn list_from_args<T: std::str::FromStr>(name: &str) -> Vec<T> {
    let parse = |s: &str| s.trim().parse().unwrap_or_else(|_| panic!("bad --{name} value {s:?}"));
    arg_value(name).map_or(Vec::new(), |v| v.split(',').map(parse).collect())
}

/// Parse `--scale` (default `std`).
pub fn scale_from_args() -> Scale {
    match arg_value("scale").as_deref() {
        Some("smoke") => Scale::Smoke,
        None | Some("std") => Scale::Std,
        Some(other) => panic!("unknown --scale {other} (expected smoke|std)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_std() {
        assert_eq!(scale_from_args(), Scale::Std);
    }

    #[test]
    fn arg_value_absent_is_none() {
        assert_eq!(arg_value("definitely-not-passed"), None);
    }

    #[test]
    fn threads_sweep_absent_is_empty() {
        assert!(list_from_args::<usize>("threads").is_empty());
    }

    #[test]
    fn flag_absent_is_false() {
        assert!(!has_flag("definitely-not-passed"));
    }
}
