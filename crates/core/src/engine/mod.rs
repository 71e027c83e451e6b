//! The simulation engine: one event-driven loop ([`event_loop`]) shared by
//! every algorithm, with the algorithm-specific behaviour supplied by a
//! [`crate::policy::ServerPolicy`].

pub mod event_loop;
pub mod setup;

use crate::checkpoint::{CheckpointError, CheckpointStore, ENGINE_UNIFIED};
use crate::config::ExperimentConfig;
use crate::metrics;
use crate::policy::{build_policy, ServerPolicy};
use seafl_sim::{TerminationReason, TraceLog};
use std::path::Path;

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Algorithm name ("seafl", "seafl2", "seafl-drop", "fedbuff",
    /// "fedasync", "fedavg", "fedstale" — [`crate::policy::ServerPolicy::name`]).
    pub algorithm: &'static str,
    /// `(sim_seconds, test_accuracy)` evaluation points, time-ordered.
    pub accuracy: Vec<(f64, f64)>,
    /// `(sim_seconds, ‖∇f(w)‖²)` probe points (empty unless enabled).
    pub grad_norms: Vec<(f64, f64)>,
    /// Server rounds completed (= number of aggregations).
    pub rounds: u64,
    /// Client updates received in total.
    pub total_updates: usize,
    /// Updates that were partial (fewer than E epochs — SEAFL² only).
    pub partial_updates: usize,
    /// Updates discarded for staleness (SAFA-style drop policy only).
    pub dropped_updates: usize,
    /// Staleness notifications sent (SEAFL² only).
    pub notifications: usize,
    /// Why the run stopped.
    pub termination: TerminationReason,
    /// Permanent device crashes observed (fault injection).
    pub crashes: usize,
    /// Upload attempts lost in transit (fault injection).
    pub upload_failures: usize,
    /// Upload retries scheduled after transient losses.
    pub retries: usize,
    /// In-flight sessions reclaimed by the server's session timeout.
    pub timeouts: usize,
    /// Clients quarantined after repeated timeouts.
    pub quarantined: usize,
    /// Updates the sanitizer rejected before aggregation.
    pub rejected_updates: usize,
    /// Sanitizer rejections caused by non-finite parameters
    /// (`rejected_nonfinite + rejected_norm = rejected_updates`).
    pub rejected_nonfinite: usize,
    /// Sanitizer rejections caused by an exploded update norm.
    pub rejected_norm: usize,
    /// Updates the Byzantine-robust layer screened out (Krum). Not part of
    /// `rejected_updates`, which counts hygiene rejections only.
    pub screened_updates: usize,
    /// Updates the robust layer norm-clipped before aggregation.
    pub clipped_updates: usize,
    /// Uploads tampered with by adversarial devices (ground truth from the
    /// attack plan, not a detection).
    pub attacked_updates: usize,
    /// The ground-truth attacker device set, sorted (empty when the attack
    /// channel is off).
    pub attackers: Vec<usize>,
    /// Distinct clients the robust layer screened at least once, sorted —
    /// the detection set that `crate::robust::detection_stats` scores
    /// against `attackers`.
    pub screened_clients: Vec<usize>,
    /// Upload events ignored because a newer generation superseded them
    /// (notification reschedules and retries).
    pub superseded_uploads: usize,
    /// Cumulative raw f32 bytes of every update snapshot that passed the
    /// codec seam (4 bytes per coordinate per snapshot).
    pub codec_bytes_raw: u64,
    /// Cumulative bytes those snapshots occupy after encoding. Equals
    /// `codec_bytes_raw` under the default identity codec; the
    /// compression ratio is `codec_bytes_encoded / codec_bytes_raw`.
    pub codec_bytes_encoded: u64,
    /// `(codec_bytes_raw, codec_bytes_encoded)` sampled at every
    /// evaluation, index-aligned with `accuracy` — the axis the paper
    /// never measured (see [`RunResult::bytes_to_accuracy`]).
    pub bytes_curve: Vec<(u64, u64)>,
    /// FNV-1a 64 digest over the final global model's weight bits. Two runs
    /// with equal digests ended on the bit-identical model — the compact
    /// fingerprint the resume guarantee and the CI kill-and-resume job
    /// compare.
    pub model_digest: u64,
    /// Simulated time at termination, seconds.
    pub sim_time_end: f64,
    /// Observability snapshot: registry digest, counters, histogram
    /// summaries and real-time phase breakdown. Empty (with
    /// `enabled: false`) when the run used [`crate::ObsMode::Off`].
    pub obs: crate::obs::ObsSummary,
    /// Full event trace.
    pub trace: TraceLog,
}

impl RunResult {
    /// First simulated time test accuracy reached `target` (the paper's
    /// headline metric).
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        metrics::time_to_accuracy(&self.accuracy, target)
    }

    /// Best test accuracy seen during the run.
    pub fn best_accuracy(&self) -> f64 {
        metrics::best_accuracy(&self.accuracy)
    }

    /// Accuracy at the final evaluation.
    pub fn final_accuracy(&self) -> f64 {
        metrics::final_accuracy(&self.accuracy)
    }

    /// Encoded update bytes uploaded by the first evaluation at which test
    /// accuracy reached `target` — the bytes-to-accuracy analogue of
    /// [`RunResult::time_to_accuracy`]. `None` when the run never got
    /// there.
    pub fn bytes_to_accuracy(&self, target: f64) -> Option<u64> {
        self.accuracy
            .iter()
            .zip(&self.bytes_curve)
            .find(|((_, acc), _)| *acc >= target)
            .map(|(_, &(_, encoded))| encoded)
    }

    /// Precision/recall of the robust layer's screening decisions against
    /// the ground-truth attacker set.
    pub fn detection(&self) -> crate::robust::DetectionStats {
        crate::robust::detection_stats(&self.attackers, &self.screened_clients)
    }
}

/// Run one experiment end to end: synthesize data, partition, build the
/// fleet and model, then drive the configured algorithm to termination.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunResult {
    cfg.validate();
    let mut env = setup::Environment::build(cfg);
    event_loop::drive(cfg, &mut env, build_policy(cfg), None)
        .unwrap_or_else(|e| panic!("run_experiment: {e}"))
}

/// Run one experiment under a caller-supplied [`ServerPolicy`] instead of
/// the config's algorithm — the extension seam for algorithms the
/// [`crate::Algorithm`] enum does not know about
/// (`examples/custom_policy.rs`). The config's algorithm field is used only
/// for validation; the policy decides everything the engine delegates.
///
/// # Examples
///
/// ```
/// use seafl_core::{build_policy, run_with_policy, Algorithm};
///
/// let mut cfg = seafl_core::test_support::tiny_cfg(7, Algorithm::fedbuff(4, 2));
/// cfg.max_rounds = 2;
/// let result = run_with_policy(&cfg, build_policy(&cfg));
/// assert!(result.rounds <= 2);
/// assert_eq!(result.algorithm, "fedbuff");
/// // Observability defaults to summary-only: counters come back in-memory.
/// assert!(result.obs.enabled);
/// assert_eq!(result.obs.counters["aggregations"], result.rounds);
/// ```
pub fn run_with_policy(cfg: &ExperimentConfig, policy: Box<dyn ServerPolicy>) -> RunResult {
    cfg.validate();
    let mut env = setup::Environment::build(cfg);
    event_loop::drive(cfg, &mut env, policy, None)
        .unwrap_or_else(|e| panic!("run_with_policy: {e}"))
}

/// Resume a crashed (or interrupted) run from the newest valid snapshot in
/// `dir`, continuing checkpointing into the same directory.
///
/// The config must be the crashed run's config (the snapshot's embedded
/// config hash is verified — state from a different experiment is rejected,
/// never silently restored). Execution knobs excluded from the hash
/// (`threads`, the checkpoint knobs themselves) may differ. The resumed run
/// finishes with the event trace and final model of an uninterrupted run of
/// the same config without its server-crash fault, bit for bit.
pub fn resume_experiment(cfg: &ExperimentConfig, dir: &Path) -> Result<RunResult, CheckpointError> {
    let mut cfg = cfg.clone();
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.validate();
    let store = CheckpointStore::new(dir, cfg.keep_last)?;
    let loaded = store.load_latest(ENGINE_UNIFIED, cfg.state_hash())?;
    for (path, cause) in &loaded.rejected {
        eprintln!("resume: skipping checkpoint {}: {cause}", path.display());
    }
    let mut env = setup::Environment::build(&cfg);
    event_loop::drive(&cfg, &mut env, build_policy(&cfg), Some(&loaded.payload))
}
