//! # seafl-core
//!
//! The SEAFL federated-learning framework: staleness-aware semi-asynchronous
//! aggregation with adaptive update weighting (the paper's Eqs. 4–8), the
//! SEAFL² partial-training extension, and the three baselines the paper
//! compares against (FedAvg, FedAsync, FedBuff), all driven by one
//! deterministic event loop ([`engine::event_loop`]) with the
//! algorithm-specific behaviour plugged in as a [`policy::ServerPolicy`].
//!
//! ## Map from paper to code
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 4 staleness factor γ | [`weighting::staleness_factor`] |
//! | Eq. 5 importance s (cosine) | [`weighting::importance_factor`] |
//! | Eq. 6 aggregation weight p | [`weighting::aggregation_weights`] |
//! | Eqs. 7–8 buffer aggregation + ϑ-mixing | [`policy::SeaflPolicy`] |
//! | Algorithm 1 (SEAFL) | [`policy::SeaflPolicy`] with [`StalenessPolicy::WaitForStale`] |
//! | Algorithm 2 (SEAFL², partial training) | [`policy::SeaflPolicy`] with [`StalenessPolicy::NotifyPartial`] |
//! | FedBuff baseline | [`policy::FedBuffPolicy`] (uniform 1/K weights, β = ∞) |
//! | FedAsync baseline | [`policy::FedAsyncPolicy`] (K = 1, polynomial staleness mixing) |
//! | FedAvg baseline | [`policy::FedAvgPolicy`] (barrier rounds: a cohort only when nothing is in flight) |
//! | FedStaleWeight-style fairness | [`policy::FedStaleWeightPolicy`] (staleness-boosted weights) |
//!
//! Every run can additionally record structured telemetry — phase timing,
//! staleness/buffer/weight distributions, fault counters, an optional JSONL
//! stream — through the [`obs`] module (see `OBSERVABILITY.md`).

#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod config;
pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod obs;
pub mod policy;
pub mod pool;
pub mod robust;
pub mod sanitize;
pub mod selection;
#[doc(hidden)]
pub mod test_support;
pub mod trainer;
pub mod update;
pub mod weighting;

pub use checkpoint::{CheckpointError, CheckpointStore, LoadedCheckpoint};
pub use client::{LocalTrainer, TrainOutcome};
pub use codec::{
    build_codec, CodecConfig, CodecStage, FeedbackStore, GenDelta, Identity, ModelRing, Pipeline,
    QuantInt8, TopK, UpdateCodec,
};
pub use config::{
    Algorithm, ExperimentConfig, PartitionStrategy, ResilienceConfig, SelectionPolicy,
    StalenessPolicy, TransportConfig,
};
pub use engine::{resume_experiment, run_experiment, run_with_policy, RunResult};
pub use fleet::{ClientPhase, FleetTable};
pub use obs::{MetricsRegistry, ObsConfig, ObsMode, ObsSummary};
pub use policy::{
    build_policy, mix, weighted_average, Admission, DispatchCtx, DrainCtx, FedAsyncPolicy,
    FedAvgPolicy, FedBuffPolicy, FedStaleWeightPolicy, InFlight, SeaflPolicy, ServerPolicy,
    ServerView,
};
pub use pool::{TrainJob, TrainerPool};
pub use robust::{
    detection_stats, DetectionStats, DistanceMetric, RobustAggregator, RobustConfig, RobustLayer,
};
pub use trainer::{CodecTransferStats, CohortTrainer, NetIncident, RemoteJob};
pub use update::ModelUpdate;
pub use weighting::ImportanceMode;
